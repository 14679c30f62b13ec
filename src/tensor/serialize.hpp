// Binary tensor serialisation (magic + rank + dims + float payload) plus a
// CSV matrix dump for external plotting. Used by examples to checkpoint
// trained networks and by Fig.-9 map dumps.
#pragma once

#include <iosfwd>
#include <string>

#include "tensor/tensor.hpp"

namespace gs {

/// Writes `t` to a binary stream.
void write_tensor(std::ostream& out, const Tensor& t);

/// Reads a tensor written by write_tensor; throws gs::Error on malformed
/// input. `in` must be seekable (a file or string stream): the payload size
/// the header claims is checked against the bytes left in the stream before
/// anything is allocated.
Tensor read_tensor(std::istream& in);

/// File-path convenience wrappers.
void save_tensor(const std::string& path, const Tensor& t);
Tensor load_tensor(const std::string& path);

/// Dumps a rank-2 tensor as CSV rows (no header).
void save_matrix_csv(const std::string& path, const Tensor& t);

}  // namespace gs
