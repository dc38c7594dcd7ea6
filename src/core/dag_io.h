// Binary serialization of computation DAGs with their reference traces.
//
// The paper's methodology collects a program's annotated DAG trace once
// and replays it across many CMP configurations and schedulers (§4.1).
// save_dag/load_dag support the same collect-once / simulate-many
// workflow: the compact RefBlock representation keeps even paper-scale
// traces to a few MB on disk.
//
// Format (magic "CASDG002"): little-endian; an interned string table for
// call-site file names, then the task table, block table, edge CSR and
// group table. Group children are rebuilt from the parent links. Version
// 1 files (before RefBlock::period) are rejected with a message naming
// the version.
#pragma once

#include <string>

#include "core/dag.h"

namespace cachesched {

/// Writes `dag` to `path`. Throws std::runtime_error on I/O failure.
void save_dag(const TaskDag& dag, const std::string& path);

/// Reads a DAG written by save_dag. Throws std::runtime_error on I/O or
/// format errors, and on a file whose tasks' `work` disagrees with their
/// blocks. The loaded DAG validates clean and produces exactly the
/// reference stream of the original.
TaskDag load_dag(const std::string& path);

}  // namespace cachesched
