#ifndef LMKG_NN_SERIALIZE_H_
#define LMKG_NN_SERIALIZE_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "nn/layer.h"
#include "nn/tensor.h"
#include "util/status.h"

namespace lmkg::nn {

/// The one serialized form of trained weights ("train once in the
/// creation phase, reuse in every execution phase"): the LMSG segment.
/// A model-store file is one segment, mmapped as is; every stream Save
/// writes one segment per model, inside a container header where the
/// owner has more to persist (core::Lmkg, core::AdaptiveLmkg; both
/// through core::ModelRegistry's one segment loop).
/// Host-endian, like every LMKG format:
///
///   [0, 80)               fixed header: u32 magic "LMSG", u32 version,
///                         arch {u32 term_encoding, u32 hidden_dim,
///                         u32 num_hidden_layers}, combo {u32 topology,
///                         u32 size}, u32 tensor_count, u64 epoch,
///                         f64 log_min, f64 log_max (the label scaler),
///                         u64 payload_offset, u64 payload_bytes,
///                         u32 crc, u32 zero
///   [80, 80 + 16 * count) tensor table: {u32 rows, u32 cols, u64 offset}
///   [.., payload_offset)  zero pad to a 64-byte boundary
///   [payload_offset, end) float32 tensors, each at a 64-byte-aligned
///                         offset, zero pad between them
///
/// The CRC covers every byte but the epoch and the CRC itself: the
/// header with those two fields zeroed, then [80, end). A store stamps
/// its epoch into the files it writes, so a model's store file and its
/// streamed segment differ in those 8 bytes only. A writer with no
/// value for arch or combo writes zero.

/// The architecture triple a segment (and a store manifest) carries.
struct SegmentArch {
  uint32_t term_encoding = 0;
  uint32_t hidden_dim = 0;
  uint32_t num_hidden_layers = 0;

  friend bool operator==(const SegmentArch&, const SegmentArch&) = default;
};

/// A (topology, size) model combo as raw integers, so nn depends on no
/// query type.
struct SegmentCombo {
  uint32_t topology = 0;
  uint32_t size = 0;

  friend auto operator<=>(const SegmentCombo&, const SegmentCombo&) =
      default;
};

/// One segment: what WriteSegment writes and what the parsers return.
/// Parsed tensors are views into the parsed bytes.
struct Segment {
  SegmentArch arch;
  SegmentCombo combo;
  uint64_t epoch = 0;
  double log_min = 0.0;
  double log_max = 0.0;
  std::vector<ConstMatrixView> tensors;
};

using TensorShape = std::pair<size_t, size_t>;

/// Writes `segment`. Fails on no tensors or more than 4096, on a
/// missing or oversized tensor, or on a write error. A tensor may be
/// empty (a 0 x n bias-only head).
util::Status WriteSegment(const Segment& segment, std::ostream& out);

/// The one parser: checks that `bytes` is exactly one well-formed
/// segment (magic, version, tensor count, layout, every tensor aligned
/// inside the payload) and, with `verify_crc`, its checksum. On success
/// `*out` views into `bytes`; on failure `*out` is untouched.
util::Status ParseSegment(std::string_view bytes, bool verify_crc,
                          Segment* out);

/// Names the tensor shapes the reader's target needs, given the
/// segment's fixed header (`head` has every field but the tensors). An
/// error rejects the segment before any tensor byte is read.
using ShapesFor = std::function<util::Result<std::vector<TensorShape>>(
    const Segment& head)>;

/// Reads one segment from a stream, validating before it allocates: the
/// header's tensor count, the tensor table and the payload size must
/// match the shapes `shapes_for` names before any tensor byte is read,
/// and the buffer then grows only as bytes arrive. The whole segment
/// then goes through ParseSegment with the CRC check. On success
/// `*bytes` holds the segment and `*out` views into it.
util::Status ReadSegment(std::istream& in, const ShapesFor& shapes_for,
                         std::vector<char>* bytes, Segment* out);

/// Ok when `tensors` have exactly `shapes`, in order.
util::Status CheckShapes(std::span<const ConstMatrixView> tensors,
                         std::span<const TensorShape> shapes);

/// The shapes of `params`' values, in order.
std::vector<TensorShape> ParamShapes(const std::vector<ParamRef>& params);

/// Read-only views of `params`' values, in order.
std::vector<ConstMatrixView> ParamViews(const std::vector<ParamRef>& params);

/// Copies a parsed segment's tensors into `params` after checking count
/// and shapes; a mismatch copies nothing.
util::Status CopySegment(const Segment& segment,
                         const std::vector<ParamRef>& params);

/// Host-endian POD writer and reader for the container headers around
/// segments (core::AdaptiveLmkg's snapshot). Read is false on
/// truncation.
template <typename T>
void WritePod(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
template <typename T>
bool ReadPod(std::istream& in, T* v) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(v), sizeof(*v)));
}

}  // namespace lmkg::nn

#endif  // LMKG_NN_SERIALIZE_H_
