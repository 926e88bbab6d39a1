// The benchmark's workloads. Each builds its store from generated inputs,
// serves it through an in-process server::Server on loopback (the
// incdb_serverd path), drives it with closed-loop server::Client
// connections and checks every answer. See perfbench/README.md.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Fig. 5(b) serving table: 2M rows, 4 uniform attributes, C = 10, 10%
/// missing; BEE + BRE registry indexes on the unsegmented store.
RunOutput RunPaperDense(const Options& options);

/// Census-like table (463,733 rows x 48 Zipf attributes); BEE + BRE +
/// VA-file built, saved, and served from the store reopened with Open.
RunOutput RunCensusReopen(const Options& options);

/// Segmented store under an open-loop writer (inserts, deletes,
/// checkpoints) with background compaction; clients query recent days.
RunOutput RunIngestRecent(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
