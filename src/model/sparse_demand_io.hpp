// Compact binary round-trip for the sparse demand representation.
//
// The long-CSV trace format (workload/trace) is human-readable but slow and
// lossy-prone at K=10^4 catalogues; these codecs serialize the CSR structure
// directly. Rates round-trip through their IEEE-754 bit pattern, and load()
// rebuilds each SBS block through append()/finalize(), so the cached support
// totals are recomputed by the exact summation the original finalize() ran —
// a loaded trace compares operator== equal to the saved one, bit for bit.
//
// Two layers:
//  - write_/read_ against Binary{Writer,Reader}: payload codecs that embed
//    a trace in any larger BinaryWriter payload; the file layer below is
//    built on them.
//  - save_/load_sparse_trace: a framed file ("MDOSTRC1" magic, version,
//    payload size, FNV-1a checksum) written atomically; load throws
//    util::InvalidArgument on any corruption instead of restoring garbage.
#pragma once

#include <string>

#include "model/sparse_demand.hpp"
#include "util/serialize.hpp"

namespace mdo::model {

void write_sparse_demand(util::BinaryWriter& w, const SparseSbsDemand& demand);
SparseSbsDemand read_sparse_demand(util::BinaryReader& r);

void write_sparse_trace(util::BinaryWriter& w, const SparseDemandTrace& trace);
SparseDemandTrace read_sparse_trace(util::BinaryReader& r);

/// Atomically writes `trace` to `path` in the framed binary format.
void save_sparse_trace(const std::string& path, const SparseDemandTrace& trace);

/// Loads a trace written by save_sparse_trace; throws util::InvalidArgument
/// on bad magic, version, size, or checksum mismatch.
SparseDemandTrace load_sparse_trace(const std::string& path);

}  // namespace mdo::model
