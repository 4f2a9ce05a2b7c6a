#include "store/model_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/atomic_file.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/strings.h"

namespace lmkg::store {
namespace {

constexpr uint32_t kManifestMagic = 0x4c4d5354;  // "LMST"
constexpr uint32_t kManifestVersion = 1;
constexpr uint32_t kMaxManifestEntries = 1u << 20;
constexpr uint32_t kMaxNameBytes = 4096;
constexpr char kManifestFile[] = "MANIFEST.lmst";

template <typename T>
void Append(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Bounds-checked cursor over a byte buffer (manifest parsing).
struct Reader {
  const char* p;
  size_t left;
  template <typename T>
  bool Read(T* v) {
    if (left < sizeof(T)) return false;
    std::memcpy(v, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return true;
  }
  bool ReadView(uint32_t len, std::string_view* v) {
    if (len > kMaxNameBytes || left < len) return false;
    *v = std::string_view(p, len);
    p += len;
    left -= len;
    return true;
  }
};

bool ValidTenantName(std::string_view tenant) {
  if (tenant.empty() || tenant.size() > 256) return false;
  for (char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string SegmentFileName(const std::string& tenant, ComboKey combo,
                            uint64_t epoch) {
  return util::StrFormat("%s.%u-%u.%llu.seg", tenant.c_str(),
                         combo.topology, combo.size,
                         static_cast<unsigned long long>(epoch));
}

util::Status MakeDirs(const std::string& dir) {
  if (dir.empty()) return util::Status::Error("store: empty directory");
  // Create each path component; EEXIST at any level is fine.
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos != dir.size() && dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
      return util::Status::Error(util::StrFormat(
          "store: mkdir %s: %s", prefix.c_str(),
          util::ErrnoMessage(errno).c_str()));
  }
  return util::Status::Ok();
}

}  // namespace

// --- MappedSegment ---------------------------------------------------------

void MappedSegment::Unmap::operator()(void* base) const {
  ::munmap(base, length);
}

void MappedSegment::Evict() const {
  if (!valid()) return;
  // Clean file-backed PROT_READ pages: DONTNEED drops them without any
  // writeback, and the next read through any view refaults from the
  // file. Best-effort — a failing madvise just means nothing was freed.
  (void)::madvise(mapping_.get(), mapped_bytes(), MADV_DONTNEED);
}

size_t MappedSegment::ResidentBytes() const {
  if (!valid()) return 0;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t pages = (mapped_bytes() + page - 1) / page;
  // mincore on a file-backed mapping answers "is the page in the page
  // cache" — which survives MADV_DONTNEED, so it cannot observe an
  // eviction. What the budget bounds is OUR page-table residency (RSS);
  // /proc/self/pagemap bit 63 reports exactly that, and the present bit
  // is readable without privileges (only the PFN is masked).
  const int fd = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    std::vector<uint64_t> entries(pages);
    const off_t offset = static_cast<off_t>(
        reinterpret_cast<uintptr_t>(mapping_.get()) / page *
        sizeof(uint64_t));
    const ssize_t want =
        static_cast<ssize_t>(pages * sizeof(uint64_t));
    const ssize_t got = ::pread(fd, entries.data(), want, offset);
    ::close(fd);
    if (got == want) {
      size_t bytes = 0;
      for (uint64_t entry : entries)
        if (entry & (1ull << 63)) bytes += page;
      return bytes;
    }
  }
  // Fallback (no /proc): page-cache residency, an upper bound.
  std::vector<unsigned char> resident(pages);
  if (::mincore(mapping_.get(), mapped_bytes(), resident.data()) != 0)
    return 0;
  size_t bytes = 0;
  for (size_t i = 0; i < pages; ++i)
    if (resident[i] & 1) bytes += page;
  return bytes;
}

// --- ModelStore ------------------------------------------------------------

ModelStore::ModelStore(std::string dir, const StoreArch& arch)
    : dir_(std::move(dir)), arch_(arch) {}

util::Status ModelStore::Open(const std::string& dir,
                              const StoreArch& arch,
                              std::unique_ptr<ModelStore>* out) {
  LMKG_CHECK(out != nullptr);
  util::Status status = MakeDirs(dir);
  if (!status.ok()) return status;
  std::unique_ptr<ModelStore> store(new ModelStore(dir, arch));
  status = store->LoadManifest();
  if (!status.ok()) return status;
  *out = std::move(store);
  return util::Status::Ok();
}

util::Status ModelStore::ParseManifest(
    const std::string& body, uint64_t* epoch,
    std::vector<EntryRef>* entries) const {
  if (body.size() < sizeof(uint32_t))
    return util::Status::Error("store: truncated manifest");
  // Trailing CRC covers everything before it.
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, body.data() + body.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  const size_t payload = body.size() - sizeof(uint32_t);
  if (util::Crc32(body.data(), payload) != stored_crc)
    return util::Status::Error("store: manifest checksum mismatch");

  Reader r{body.data(), payload};
  uint32_t magic = 0, version = 0;
  if (!r.Read(&magic) || magic != kManifestMagic)
    return util::Status::Error(
        "store: bad manifest magic (not an LMKG model store)");
  if (!r.Read(&version) || version != kManifestVersion)
    return util::Status::Error(util::StrFormat(
        "store: unsupported manifest version %u", version));
  StoreArch arch;
  if (!r.Read(&arch.term_encoding) || !r.Read(&arch.hidden_dim) ||
      !r.Read(&arch.num_hidden_layers))
    return util::Status::Error("store: truncated manifest header");
  if (!(arch == arch_))
    return util::Status::Error(util::StrFormat(
        "store: arch mismatch (store encoding=%u hidden=%u layers=%u; "
        "caller encoding=%u hidden=%u layers=%u)",
        arch.term_encoding, arch.hidden_dim, arch.num_hidden_layers,
        arch_.term_encoding, arch_.hidden_dim, arch_.num_hidden_layers));
  uint32_t count = 0;
  if (!r.Read(epoch) || !r.Read(&count) || count > kMaxManifestEntries)
    return util::Status::Error("store: corrupt manifest header");
  entries->clear();
  entries->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    EntryRef entry;
    uint32_t tenant_len = 0, file_len = 0;
    if (!r.Read(&tenant_len) || !r.ReadView(tenant_len, &entry.tenant) ||
        !r.Read(&entry.combo.topology) || !r.Read(&entry.combo.size) ||
        !r.Read(&entry.epoch) || !r.Read(&file_len) ||
        !r.ReadView(file_len, &entry.file) || !r.Read(&entry.bytes))
      return util::Status::Error("store: truncated manifest entry");
    if (!ValidTenantName(entry.tenant) ||
        entry.file.find('/') != std::string_view::npos)
      return util::Status::Error("store: corrupt manifest entry");
    // Strict ordering doubles as the duplicate check; Commit always
    // serializes entries sorted by (tenant, combo).
    if (!entries->empty()) {
      const EntryRef& prev = entries->back();
      if (std::make_pair(prev.tenant, prev.combo) >=
          std::make_pair(entry.tenant, entry.combo))
        return util::Status::Error("store: unsorted manifest entry");
    }
    entries->push_back(entry);
  }
  return util::Status::Ok();
}

util::Status ModelStore::LoadManifest() {
  const std::string path = dir_ + "/" + kManifestFile;
  std::string bytes;
  {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return util::Status::Ok();  // fresh store
      return util::Status::Error(util::StrFormat(
          "store: stat %s: %s", path.c_str(),
          util::ErrnoMessage(errno).c_str()));
    }
  }
  util::Status status = util::ReadFile(path, &bytes);
  if (!status.ok()) return status;
  uint64_t epoch = 0;
  std::vector<EntryRef> entries;
  status = ParseManifest(bytes, &epoch, &entries);
  if (!status.ok()) return status;
  util::MutexLock lock(&mu_);
  manifest_body_ = std::move(bytes);
  entries_ = std::move(entries);
  epoch_ = epoch;
  return util::Status::Ok();
}

util::Status ModelStore::WriteSegment(const std::string& tenant,
                                      const nn::Segment& segment) {
  if (!ValidTenantName(tenant))
    return util::Status::Error(util::StrFormat(
        "store: invalid tenant name '%s' (want [A-Za-z0-9_-]+)",
        tenant.c_str()));
  nn::Segment stamped = segment;
  stamped.arch = arch_;
  {
    util::MutexLock lock(&mu_);
    stamped.epoch = epoch_ + 1;
  }
  std::ostringstream file_bytes;
  util::Status status = nn::WriteSegment(stamped, file_bytes);
  if (!status.ok()) return status;

  SegmentInfo info;
  info.tenant = tenant;
  info.combo = segment.combo;
  info.epoch = stamped.epoch;
  info.file = SegmentFileName(tenant, segment.combo, stamped.epoch);
  info.bytes = static_cast<uint64_t>(file_bytes.tellp());
  status = util::WriteFileAtomic(dir_ + "/" + info.file, file_bytes.view());
  if (!status.ok()) return status;

  util::MutexLock lock(&mu_);
  staged_[{tenant, segment.combo}] = std::move(info);
  return util::Status::Ok();
}

util::Status ModelStore::RemoveSegment(const std::string& tenant,
                                       ComboKey combo) {
  util::MutexLock lock(&mu_);
  const auto key = std::make_pair(tenant, combo);
  const auto it = LowerBoundLocked(tenant, combo);
  const bool committed = it != entries_.end() && it->tenant == tenant &&
                         it->combo == combo;
  if (!committed && staged_.count(key) == 0)
    return util::Status::Error(util::StrFormat(
        "store: no segment for %s %u-%u", tenant.c_str(), combo.topology,
        combo.size));
  staged_[key] = std::nullopt;
  return util::Status::Ok();
}

util::Status ModelStore::Commit() {
  util::MutexLock lock(&mu_);
  if (staged_.empty()) return util::Status::Ok();
  const uint64_t next_epoch = epoch_ + 1;

  std::string body;
  Append(&body, kManifestMagic);
  Append(&body, kManifestVersion);
  Append(&body, arch_.term_encoding);
  Append(&body, arch_.hidden_dim);
  Append(&body, arch_.num_hidden_layers);
  Append(&body, next_epoch);
  const size_t count_offset = body.size();
  Append(&body, uint32_t{0});  // entry count, patched below

  // Merge the committed index with the staged overlay — both sorted by
  // (tenant, combo) — serializing survivors straight into the body.
  uint32_t count = 0;
  std::vector<std::string> obsolete;
  const auto emit = [&](std::string_view tenant, ComboKey combo,
                        uint64_t epoch, std::string_view file,
                        uint64_t bytes) {
    Append(&body, static_cast<uint32_t>(tenant.size()));
    body += tenant;
    Append(&body, combo.topology);
    Append(&body, combo.size);
    Append(&body, epoch);
    Append(&body, static_cast<uint32_t>(file.size()));
    body += file;
    Append(&body, bytes);
    ++count;
  };
  auto ci = entries_.begin();
  auto si = staged_.begin();
  while (ci != entries_.end() || si != staged_.end()) {
    const bool take_committed =
        si == staged_.end() ||
        (ci != entries_.end() &&
         std::make_pair(ci->tenant, ci->combo) <
             std::make_pair(std::string_view(si->first.first),
                            si->first.second));
    if (take_committed) {
      emit(ci->tenant, ci->combo, ci->epoch, ci->file, ci->bytes);
      ++ci;
      continue;
    }
    const bool replaces = ci != entries_.end() &&
                          ci->tenant == si->first.first &&
                          ci->combo == si->first.second;
    const std::optional<SegmentInfo>& entry = si->second;
    if (replaces && (!entry.has_value() || ci->file != entry->file))
      obsolete.emplace_back(ci->file);
    if (replaces) ++ci;
    if (entry.has_value())
      emit(entry->tenant, entry->combo, entry->epoch, entry->file,
           entry->bytes);
    ++si;
  }
  std::memcpy(body.data() + count_offset, &count, sizeof(count));
  Append(&body, util::Crc32(body.data(), body.size()));

  // The rename below is the commit point: fail before it and the staged
  // set stays staged against the old manifest; succeed and the unlinks
  // are pure garbage collection (a crash there leaks files only).
  util::Status status =
      util::WriteFileAtomic(dir_ + "/" + kManifestFile, body);
  if (!status.ok()) return status;
  // Re-parse what was just written so the in-memory index can never
  // drift from the on-disk manifest (and the serialization stays
  // self-checked).
  uint64_t epoch = 0;
  std::vector<EntryRef> entries;
  status = ParseManifest(body, &epoch, &entries);
  LMKG_CHECK(status.ok()) << status.message();
  manifest_body_ = std::move(body);
  entries_ = std::move(entries);
  epoch_ = epoch;
  staged_.clear();
  for (const std::string& file : obsolete)
    (void)::unlink((dir_ + "/" + file).c_str());
  return util::Status::Ok();
}

SegmentInfo ModelStore::MakeInfo(const EntryRef& entry) const {
  SegmentInfo info;
  info.tenant = std::string(entry.tenant);
  info.combo = entry.combo;
  info.epoch = entry.epoch;
  info.file = std::string(entry.file);
  info.bytes = entry.bytes;
  return info;
}

std::vector<ModelStore::EntryRef>::const_iterator
ModelStore::LowerBoundLocked(std::string_view tenant,
                             ComboKey combo) const {
  return std::lower_bound(
      entries_.begin(), entries_.end(), std::make_pair(tenant, combo),
      [](const EntryRef& entry,
         const std::pair<std::string_view, ComboKey>& key) {
        return std::make_pair(entry.tenant, entry.combo) < key;
      });
}

std::optional<SegmentInfo> ModelStore::Find(const std::string& tenant,
                                            ComboKey combo) const {
  util::MutexLock lock(&mu_);
  const auto it = LowerBoundLocked(tenant, combo);
  if (it == entries_.end() || it->tenant != tenant || !(it->combo == combo))
    return std::nullopt;
  return MakeInfo(*it);
}

std::vector<SegmentInfo> ModelStore::TenantSegments(
    const std::string& tenant) const {
  util::MutexLock lock(&mu_);
  std::vector<SegmentInfo> out;
  for (auto it = LowerBoundLocked(tenant, ComboKey{});
       it != entries_.end() && it->tenant == tenant; ++it)
    out.push_back(MakeInfo(*it));
  return out;
}

std::vector<ComboKey> ModelStore::TenantCombos(
    const std::string& tenant) const {
  util::MutexLock lock(&mu_);
  const auto begin = LowerBoundLocked(tenant, ComboKey{});
  auto end = begin;
  while (end != entries_.end() && end->tenant == tenant) ++end;
  std::vector<ComboKey> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (auto it = begin; it != end; ++it) out.push_back(it->combo);
  return out;
}

std::vector<SegmentInfo> ModelStore::Segments() const {
  util::MutexLock lock(&mu_);
  std::vector<SegmentInfo> out;
  out.reserve(entries_.size());
  for (const EntryRef& entry : entries_) out.push_back(MakeInfo(entry));
  return out;
}

uint64_t ModelStore::epoch() const {
  util::MutexLock lock(&mu_);
  return epoch_;
}

size_t ModelStore::num_segments() const {
  util::MutexLock lock(&mu_);
  return entries_.size();
}

util::Status ModelStore::MapSegment(const SegmentInfo& info,
                                    bool verify_crc,
                                    MappedSegment* out) const {
  LMKG_CHECK(out != nullptr);
  const std::string path = dir_ + "/" + info.file;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    return util::Status::Error(util::StrFormat(
        "store: open %s: %s", path.c_str(),
        util::ErrnoMessage(errno).c_str()));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const util::Status status = util::Status::Error(util::StrFormat(
        "store: fstat %s: %s", path.c_str(),
        util::ErrnoMessage(errno).c_str()));
    ::close(fd);
    return status;
  }
  const size_t length = static_cast<size_t>(st.st_size);
  if (length != info.bytes) {
    ::close(fd);
    return util::Status::Error(util::StrFormat(
        "store: %s is %zu bytes, manifest says %llu", path.c_str(),
        length, static_cast<unsigned long long>(info.bytes)));
  }
  void* base = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED)
    return util::Status::Error(util::StrFormat(
        "store: mmap %s: %s", path.c_str(),
        util::ErrnoMessage(errno).c_str()));
  MappedSegment mapped;
  mapped.mapping_ = {base, MappedSegment::Unmap{length}};
  util::Status status = nn::ParseSegment(
      {static_cast<const char*>(base), length}, verify_crc, &mapped.segment_);
  if (!status.ok()) return util::Status::Error("store: " + status.message());
  if (!(mapped.segment_.arch == arch_))
    return util::Status::Error("store: segment arch mismatch");
  if (mapped.segment_.combo != info.combo ||
      mapped.segment_.epoch != info.epoch)
    return util::Status::Error(
        "store: segment does not match its manifest entry");
  *out = std::move(mapped);
  return util::Status::Ok();
}

}  // namespace lmkg::store
