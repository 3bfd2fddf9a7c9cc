#ifndef COLARM_MIP_SERIALIZE_H_
#define COLARM_MIP_SERIALIZE_H_

#include <string>

#include "mip/mip_index.h"

namespace colarm {

/// Persistence for the offline-built MIP-index, so the expensive
/// preprocess-once phase really runs once per dataset across process
/// lifetimes (the POQM contract taken seriously).
///
/// The file stores the build options, the dataset fingerprint, the MIP
/// array (itemsets, global counts, bounding boxes), and a trailing FNV-1a
/// checksum of the payload; the R-tree, IT-tree and statistics are rebuilt
/// deterministically on load, which keeps the format small and
/// version-stable. Loading verifies the fingerprint (so an index cannot
/// silently be attached to different data), validates every field against
/// the schema before using it, and rejects any truncation or bit flip via
/// the checksum — a corrupted file yields a Status, never undefined
/// behavior.
Status SaveMipIndex(const MipIndex& index, const std::string& path);

Result<MipIndex> LoadMipIndex(const Dataset& dataset, const std::string& path);

/// Cheap structural fingerprint of a dataset (schema shape + record count
/// + sampled cells). Exposed for tests.
uint64_t DatasetFingerprint(const Dataset& dataset);

}  // namespace colarm

#endif  // COLARM_MIP_SERIALIZE_H_
