// The bench env knobs must hard-error on misparse instead of silently
// defaulting: a typo'd COLARM_BENCH_SCALE or COLARM_BENCH_THREADS would
// otherwise publish numbers labelled with parameters that never ran.
#include <gtest/gtest.h>

#include <cstdlib>

#include "harness.h"

namespace colarm {
namespace bench {
namespace {

class BenchEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("COLARM_BENCH_SCALE");
    ::unsetenv("COLARM_BENCH_THREADS");
  }
};

TEST_F(BenchEnvTest, UnsetAndEmptyMeanDefaults) {
  ::unsetenv("COLARM_BENCH_SCALE");
  ::unsetenv("COLARM_BENCH_THREADS");
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
  EXPECT_EQ(ThreadsFromEnv(), 0u);

  ::setenv("COLARM_BENCH_SCALE", "", 1);
  ::setenv("COLARM_BENCH_THREADS", "", 1);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
  EXPECT_EQ(ThreadsFromEnv(), 0u);
}

TEST_F(BenchEnvTest, ValidValuesParse) {
  ::setenv("COLARM_BENCH_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 0.25);
  ::setenv("COLARM_BENCH_THREADS", "8", 1);
  EXPECT_EQ(ThreadsFromEnv(), 8u);
}

using BenchEnvDeathTest = BenchEnvTest;

TEST_F(BenchEnvDeathTest, MalformedScaleDies) {
  ::setenv("COLARM_BENCH_SCALE", "O.5", 1);  // letter O, the classic typo
  EXPECT_EXIT(ScaleFromEnv(), ::testing::ExitedWithCode(2),
              "COLARM_BENCH_SCALE");
}

TEST_F(BenchEnvDeathTest, TrailingJunkScaleDies) {
  ::setenv("COLARM_BENCH_SCALE", "0.5x", 1);
  EXPECT_EXIT(ScaleFromEnv(), ::testing::ExitedWithCode(2),
              "COLARM_BENCH_SCALE");
}

TEST_F(BenchEnvDeathTest, NonPositiveScaleDies) {
  ::setenv("COLARM_BENCH_SCALE", "0", 1);
  EXPECT_EXIT(ScaleFromEnv(), ::testing::ExitedWithCode(2),
              "COLARM_BENCH_SCALE");
  ::setenv("COLARM_BENCH_SCALE", "-1", 1);
  EXPECT_EXIT(ScaleFromEnv(), ::testing::ExitedWithCode(2),
              "COLARM_BENCH_SCALE");
}

TEST_F(BenchEnvDeathTest, MalformedThreadsDies) {
  ::setenv("COLARM_BENCH_THREADS", "1x", 1);
  EXPECT_EXIT(ThreadsFromEnv(), ::testing::ExitedWithCode(2),
              "COLARM_BENCH_THREADS");
}

TEST_F(BenchEnvDeathTest, NegativeThreadsDies) {
  ::setenv("COLARM_BENCH_THREADS", "-4", 1);
  EXPECT_EXIT(ThreadsFromEnv(), ::testing::ExitedWithCode(2),
              "COLARM_BENCH_THREADS");
}

TEST_F(BenchEnvDeathTest, OverflowingThreadsDies) {
  ::setenv("COLARM_BENCH_THREADS", "99999999999999999999", 1);
  EXPECT_EXIT(ThreadsFromEnv(), ::testing::ExitedWithCode(2),
              "COLARM_BENCH_THREADS");
}

}  // namespace
}  // namespace bench
}  // namespace colarm
