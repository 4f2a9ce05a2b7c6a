#include "nn/serialize.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <string>

#include "util/crc32.h"
#include "util/strings.h"

namespace lmkg::nn {
namespace {

constexpr uint32_t kSegmentMagic = 0x4c4d5347;  // "LMSG"
constexpr uint32_t kSegmentVersion = 2;
constexpr size_t kHeaderBytes = 80;
constexpr size_t kTableEntryBytes = 16;
constexpr size_t kPayloadAlign = 64;
// Far above any real model (a 3-layer LmkgS has 8 tensors), far below
// anything that could overflow the offset arithmetic from a corrupt
// count.
constexpr uint32_t kMaxTensors = 4096;
// A stream's payload buffer grows by at most this much past the bytes
// that have already arrived.
constexpr size_t kReadChunk = size_t{1} << 20;

struct Header {
  uint32_t magic = 0;
  uint32_t version = 0;
  SegmentArch arch;
  SegmentCombo combo;
  uint32_t tensor_count = 0;
  uint64_t epoch = 0;
  double log_min = 0.0;
  double log_max = 0.0;
  uint64_t payload_offset = 0;
  uint64_t payload_bytes = 0;
  uint32_t crc = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(Header) == kHeaderBytes,
              "segment header layout is part of the on-disk format");
static_assert(offsetof(Header, epoch) == 32 && offsetof(Header, crc) == 72,
              "segment header layout is part of the on-disk format");

uint64_t AlignUp(uint64_t n) {
  return (n + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
}

// The writer's layout for tensors of these shapes: each tensor's
// payload offset, and the segment's total length as the return value.
uint64_t LayOut(std::span<const TensorShape> shapes,
                std::vector<uint64_t>* offsets) {
  uint64_t offset = kHeaderBytes + kTableEntryBytes * shapes.size();
  offsets->clear();
  for (const auto& [rows, cols] : shapes) {
    offset = AlignUp(offset);
    offsets->push_back(offset);
    offset += static_cast<uint64_t>(rows) * cols * sizeof(float);
  }
  return offset;
}

// CRC of the header with the epoch and the CRC field zeroed: the seed
// the rest of the segment's checksum chains from.
uint32_t HeaderCrc(Header header) {
  header.epoch = 0;
  header.crc = 0;
  return util::Crc32(&header, sizeof(header));
}

Segment HeadOf(const Header& header) {
  Segment head;
  head.arch = header.arch;
  head.combo = header.combo;
  head.epoch = header.epoch;
  head.log_min = header.log_min;
  head.log_max = header.log_max;
  return head;
}

util::Status DecodeHeader(std::string_view bytes, Header* header) {
  if (bytes.size() < kHeaderBytes)
    return util::Status::Error("serialize: truncated segment header");
  std::memcpy(header, bytes.data(), kHeaderBytes);
  if (header->magic != kSegmentMagic)
    return util::Status::Error("serialize: bad magic (not an LMSG segment)");
  if (header->version != kSegmentVersion)
    return util::Status::Error(util::StrFormat(
        "serialize: unsupported segment version %u", header->version));
  if (header->tensor_count == 0 || header->tensor_count > kMaxTensors)
    return util::Status::Error("serialize: corrupt segment tensor count");
  return util::Status::Ok();
}

struct TableEntry {
  uint32_t rows = 0;
  uint32_t cols = 0;
  uint64_t offset = 0;
};
static_assert(sizeof(TableEntry) == kTableEntryBytes);

TableEntry EntryAt(const char* table, size_t i) {
  TableEntry entry;
  std::memcpy(&entry, table + i * kTableEntryBytes, kTableEntryBytes);
  return entry;
}

}  // namespace

std::vector<TensorShape> ParamShapes(const std::vector<ParamRef>& params) {
  std::vector<TensorShape> shapes;
  shapes.reserve(params.size());
  for (const ParamRef& p : params)
    shapes.emplace_back(p.value->rows(), p.value->cols());
  return shapes;
}

util::Status WriteSegment(const Segment& segment, std::ostream& out) {
  const std::vector<ConstMatrixView>& tensors = segment.tensors;
  if (tensors.empty() || tensors.size() > kMaxTensors)
    return util::Status::Error("serialize: a segment holds 1..4096 tensors");
  std::vector<TensorShape> shapes;
  shapes.reserve(tensors.size());
  for (const ConstMatrixView& t : tensors) {
    if ((t.data == nullptr && t.rows * t.cols > 0) ||
        t.rows > UINT32_MAX || t.cols > UINT32_MAX)
      return util::Status::Error(
          "serialize: missing or oversized tensor in segment");
    shapes.emplace_back(t.rows, t.cols);
  }
  std::vector<uint64_t> offsets;
  const uint64_t total = LayOut(shapes, &offsets);
  std::vector<TableEntry> table(tensors.size());
  for (size_t i = 0; i < tensors.size(); ++i)
    table[i] = {static_cast<uint32_t>(tensors[i].rows),
                static_cast<uint32_t>(tensors[i].cols), offsets[i]};

  Header header;
  header.magic = kSegmentMagic;
  header.version = kSegmentVersion;
  header.arch = segment.arch;
  header.combo = segment.combo;
  header.tensor_count = static_cast<uint32_t>(tensors.size());
  header.epoch = segment.epoch;
  header.log_min = segment.log_min;
  header.log_max = segment.log_max;
  header.payload_offset = offsets.front();
  header.payload_bytes = total - offsets.front();

  // Everything after the header, in file order: the table, then each
  // tensor behind its zero pad. Walked once for the CRC, once to write.
  static constexpr char kZeros[kPayloadAlign] = {};
  const auto for_each_chunk = [&](const auto& emit) {
    emit(table.data(), table.size() * kTableEntryBytes);
    uint64_t at = kHeaderBytes + table.size() * kTableEntryBytes;
    for (size_t i = 0; i < tensors.size(); ++i) {
      const size_t bytes = tensors[i].rows * tensors[i].cols * sizeof(float);
      emit(kZeros, offsets[i] - at);
      emit(tensors[i].data, bytes);
      at = offsets[i] + bytes;
    }
  };
  uint32_t crc = HeaderCrc(header);
  for_each_chunk([&](const void* data, size_t n) {
    crc = util::Crc32(data, n, crc);
  });
  header.crc = crc;
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for_each_chunk([&](const void* data, size_t n) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
  });
  if (!out) return util::Status::Error("serialize: segment write failed");
  return util::Status::Ok();
}

util::Status ParseSegment(std::string_view bytes, bool verify_crc,
                          Segment* out) {
  Header header;
  if (util::Status status = DecodeHeader(bytes, &header); !status.ok())
    return status;
  const size_t length = bytes.size();
  const uint64_t table_end =
      kHeaderBytes + kTableEntryBytes * header.tensor_count;
  if (header.payload_offset != AlignUp(table_end) ||
      header.payload_offset > length ||
      header.payload_bytes != length - header.payload_offset)
    return util::Status::Error("serialize: corrupt segment layout");
  if (verify_crc &&
      util::Crc32(bytes.data() + kHeaderBytes, length - kHeaderBytes,
                  HeaderCrc(header)) != header.crc)
    return util::Status::Error("serialize: segment checksum mismatch");

  Segment segment = HeadOf(header);
  segment.tensors.resize(header.tensor_count);
  for (uint32_t i = 0; i < header.tensor_count; ++i) {
    const TableEntry entry = EntryAt(bytes.data() + kHeaderBytes, i);
    if (entry.offset % kPayloadAlign != 0 ||
        entry.offset < header.payload_offset || entry.offset > length ||
        static_cast<uint64_t>(entry.rows) * entry.cols >
            (length - entry.offset) / sizeof(float))
      return util::Status::Error(
          util::StrFormat("serialize: corrupt segment tensor %u", i));
    segment.tensors[i] = {
        reinterpret_cast<const float*>(bytes.data() + entry.offset),
        entry.rows, entry.cols};
  }
  *out = std::move(segment);
  return util::Status::Ok();
}

util::Status ReadSegment(std::istream& in, const ShapesFor& shapes_for,
                         std::vector<char>* bytes, Segment* out) {
  bytes->resize(kHeaderBytes);
  if (!in.read(bytes->data(), kHeaderBytes))
    return util::Status::Error("serialize: truncated segment header");
  Header header;
  if (util::Status status =
          DecodeHeader({bytes->data(), bytes->size()}, &header);
      !status.ok())
    return status;
  util::Result<std::vector<TensorShape>> shapes = shapes_for(HeadOf(header));
  if (!shapes.ok()) return shapes.status();
  // The table is at most 4096 entries (DecodeHeader checked).
  const size_t table_bytes = kTableEntryBytes * header.tensor_count;
  bytes->resize(kHeaderBytes + table_bytes);
  if (!in.read(bytes->data() + kHeaderBytes,
               static_cast<std::streamsize>(table_bytes)))
    return util::Status::Error("serialize: truncated tensor table");
  std::vector<ConstMatrixView> table(header.tensor_count);
  for (size_t i = 0; i < table.size(); ++i) {
    const TableEntry entry = EntryAt(bytes->data() + kHeaderBytes, i);
    table[i] = {nullptr, entry.rows, entry.cols};
  }
  if (util::Status status = CheckShapes(table, shapes.value()); !status.ok())
    return status;
  std::vector<uint64_t> offsets;
  const uint64_t total = LayOut(shapes.value(), &offsets);
  if (header.payload_offset != offsets.front() ||
      header.payload_bytes != total - offsets.front())
    return util::Status::Error(
        "serialize: segment size does not match the model");

  // The rest arrives in chunks: capacity at most doubles what has
  // arrived, never exceeds `total`, and a truncated stream fails at its
  // first short chunk.
  while (bytes->size() < total) {
    const size_t at = bytes->size();
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(kReadChunk, total - at));
    if (bytes->capacity() < at + chunk)
      bytes->reserve(static_cast<size_t>(std::min<uint64_t>(
          total, std::max(2 * bytes->capacity(), at + chunk))));
    bytes->resize(at + chunk);
    if (!in.read(bytes->data() + at, static_cast<std::streamsize>(chunk)))
      return util::Status::Error("serialize: truncated segment data");
  }
  return ParseSegment({bytes->data(), bytes->size()}, /*verify_crc=*/true,
                      out);
}

util::Status CheckShapes(std::span<const ConstMatrixView> tensors,
                         std::span<const TensorShape> shapes) {
  if (tensors.size() != shapes.size())
    return util::Status::Error(util::StrFormat(
        "serialize: tensor count mismatch (segment %zu, model %zu)",
        tensors.size(), shapes.size()));
  for (size_t i = 0; i < tensors.size(); ++i)
    if (tensors[i].rows != shapes[i].first ||
        tensors[i].cols != shapes[i].second)
      return util::Status::Error(util::StrFormat(
          "serialize: tensor %zu shape mismatch (segment %zux%zu, model "
          "%zux%zu)",
          i, tensors[i].rows, tensors[i].cols, shapes[i].first,
          shapes[i].second));
  return util::Status::Ok();
}

std::vector<ConstMatrixView> ParamViews(
    const std::vector<ParamRef>& params) {
  std::vector<ConstMatrixView> views;
  views.reserve(params.size());
  // Const access only: params may be borrowed views over an mmapped
  // store segment, where the mutating accessors are invalid.
  for (const ParamRef& p : params) {
    const Matrix& m = *p.value;
    views.push_back({m.data(), m.rows(), m.cols()});
  }
  return views;
}

util::Status CopySegment(const Segment& segment,
                         const std::vector<ParamRef>& params) {
  if (util::Status status = CheckShapes(segment.tensors, ParamShapes(params));
      !status.ok())
    return status;
  for (size_t i = 0; i < params.size(); ++i)
    std::copy_n(segment.tensors[i].data,
                segment.tensors[i].rows * segment.tensors[i].cols,
                params[i].value->data());
  return util::Status::Ok();
}

}  // namespace lmkg::nn
