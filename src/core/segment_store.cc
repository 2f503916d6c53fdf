#include "core/segment_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#define HPL_HAVE_MMAP 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define HPL_HAVE_MMAP 0
#endif

namespace hpl {
namespace internal {
namespace {

namespace fs = std::filesystem;

// Segment file layout (all fields little-endian):
//   char     magic[8]     "HPLSEGM1"
//   u32      version      (1)
//   u32      segment      index within the column
//   char     tag[8]       column tag, NUL-padded
//   u64      bytes        payload byte count
//   u64      checksum     FNV-1a over the payload
//   u8[8]    reserved     zero (pads the header to 48 bytes, so the payload
//                          starts 8-byte aligned for mmap'd access)
//   u8[bytes] payload
constexpr char kSegMagic[8] = {'H', 'P', 'L', 'S', 'E', 'G', 'M', '1'};
constexpr std::uint32_t kSegVersion = 1;
constexpr std::size_t kSegHeaderBytes = 48;

// Same FNV-1a constants as the hpl-space snapshot format (serialization.cc).
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Fnv1a(const void* data, std::size_t n) {
  std::uint64_t h = kFnvOffset;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void PutU32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void PutU64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint32_t GetU32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}
std::uint64_t GetU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

[[noreturn]] void SegError(const std::string& file, const std::string& what) {
  throw ModelError("segment file '" + file + "': " + what);
}

}  // namespace

SegmentPin::SegmentPin(SegmentedSpaceStore* store, SegmentMeta* seg)
    : store_(store), seg_(seg) {
  if (store_ != nullptr && seg_ != nullptr) store_->Pin(seg_);
}

void SegmentPin::Release() {
  if (store_ != nullptr && seg_ != nullptr) store_->Unpin(seg_);
  store_ = nullptr;
  seg_ = nullptr;
}

SegmentedSpaceStore::~SegmentedSpaceStore() {
  std::error_code ec;
  for (auto& e : entries_) {
    auto* seg = e->meta.get();
    if (seg->map_base != nullptr) {
#if HPL_HAVE_MMAP
      ::munmap(seg->map_base, seg->map_len);
#endif
      seg->map_base = nullptr;
    }
    if (!seg->file.empty()) fs::remove(seg->file, ec);
  }
  if (owns_spill_dir_ && !spill_dir_.empty()) fs::remove(spill_dir_, ec);
}

SegmentMeta* SegmentedSpaceStore::Register(const char* tag,
                                           std::uint32_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = std::make_unique<Entry>();
  entry->tag = tag;
  entry->index = index;
  entry->uid = next_uid_++;
  entry->meta = std::make_unique<SegmentMeta>();
  auto* seg = entry->meta.get();
  seg->lru_tick = ++lru_clock_;
  entries_.push_back(std::move(entry));
  return seg;
}

SegmentedSpaceStore::Entry& SegmentedSpaceStore::EntryOf(SegmentMeta* seg) {
  for (auto& e : entries_)
    if (e->meta.get() == seg) return *e;
  throw ModelError("SegmentedSpaceStore: unknown segment");
}

void SegmentedSpaceStore::Seal(SegmentMeta* seg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (seg->sealed) return;
  seg->sealed = true;
  if (seg->state == SegmentState::kResident) {
    // shrink_to_fit may reallocate; republish the (possibly new) base.
    seg->heap.shrink_to_fit();
    seg->data.store(seg->heap.data(), std::memory_order_release);
  }
}

void SegmentedSpaceStore::Unseal(SegmentMeta* seg) {
  std::unique_lock<std::mutex> lock(mu_);
  if (seg->state != SegmentState::kResident) {
    Entry& e = EntryOf(seg);
    FaultInLocked(e);  // may map or heap-load
  }
  if (seg->state == SegmentState::kMapped) {
    // Convert the read-only mapping to private heap backing.
    seg->heap.assign(
        static_cast<const unsigned char*>(
            seg->data.load(std::memory_order_acquire)),
        static_cast<const unsigned char*>(
            seg->data.load(std::memory_order_acquire)) +
            seg->bytes);
#if HPL_HAVE_MMAP
    ::munmap(seg->map_base, seg->map_len);
#endif
    seg->map_base = nullptr;
    seg->map_len = 0;
    seg->state = SegmentState::kResident;
    seg->data.store(seg->heap.data(), std::memory_order_release);
  }
  seg->sealed = false;
  seg->dirty = true;
  seg->lru_tick = ++lru_clock_;
}

void SegmentedSpaceStore::Grew(SegmentMeta* seg, std::uint64_t new_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  seg->bytes = new_bytes;
  seg->dirty = true;
  seg->lru_tick = ++lru_clock_;
}

void SegmentedSpaceStore::Drop(SegmentMeta* seg) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& dropped = EntryOf(seg);
  if (seg->map_base != nullptr) {
#if HPL_HAVE_MMAP
    ::munmap(seg->map_base, seg->map_len);
#endif
    seg->map_base = nullptr;
  }
  if (!seg->file.empty()) {
    std::error_code ec;
    fs::remove(seg->file, ec);
  }
  entries_.erase(std::find_if(
      entries_.begin(), entries_.end(),
      [&](const std::unique_ptr<Entry>& e) { return e.get() == &dropped; }));
}

void SegmentedSpaceStore::Pin(SegmentMeta* seg) {
  std::lock_guard<std::mutex> lock(mu_);
  ++seg->pins;
  seg->lru_tick = ++lru_clock_;
}

void SegmentedSpaceStore::Unpin(SegmentMeta* seg) {
  std::lock_guard<std::mutex> lock(mu_);
  --seg->pins;
}

void SegmentedSpaceStore::EnsureSpillDir() {
  if (!spill_dir_.empty()) return;
  if (!options_.spill_dir.empty()) {
    fs::create_directories(options_.spill_dir);
    spill_dir_ = options_.spill_dir;
    owns_spill_dir_ = false;
    return;
  }
  // Fresh private directory under the system temp dir.
  static std::atomic<std::uint64_t> seq{0};
  const auto base = fs::temp_directory_path();
  const std::string name = "hpl-segments-" +
#if HPL_HAVE_MMAP
                           std::to_string(static_cast<long>(::getpid())) +
#else
                           std::string("p") +
#endif
                           "-" + std::to_string(seq.fetch_add(1));
  const fs::path dir = base / name;
  fs::create_directories(dir);
  spill_dir_ = dir.string();
  owns_spill_dir_ = true;
}

std::string SegmentedSpaceStore::SpillPath(const Entry& e) {
  EnsureSpillDir();
  // The uid (not the column-relative index) keys the file name, so a
  // replacement column (e.g. the canonical-index merge) never collides
  // with the files of the column it supersedes.
  return (fs::path(spill_dir_) /
          (e.tag + "-" + std::to_string(e.uid) + ".hplseg"))
      .string();
}

void SegmentedSpaceStore::SpillLocked(Entry& e) {
  auto* seg = e.meta.get();
  if (seg->state == SegmentState::kOnDisk) return;
  if (seg->dirty || seg->file.empty()) {
    const std::string path = SpillPath(e);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
      SegError(path, std::string("open for write failed: ") +
                         std::strerror(errno));
    unsigned char header[kSegHeaderBytes] = {};
    std::memcpy(header, kSegMagic, 8);
    PutU32(header + 8, kSegVersion);
    PutU32(header + 12, e.index);
    std::strncpy(reinterpret_cast<char*>(header + 16), e.tag.c_str(), 8);
    PutU64(header + 24, seg->bytes);
    const void* payload = seg->data.load(std::memory_order_acquire);
    PutU64(header + 32, Fnv1a(payload, seg->bytes));
    const bool ok =
        std::fwrite(header, 1, kSegHeaderBytes, f) == kSegHeaderBytes &&
        (seg->bytes == 0 ||
         std::fwrite(payload, 1, seg->bytes, f) == seg->bytes);
    if (std::fclose(f) != 0 || !ok) SegError(path, "write failed");
    seg->file = path;
    seg->dirty = false;
    ++writes_;
  }
  // Release the in-memory backing.
  seg->data.store(nullptr, std::memory_order_release);
  if (seg->map_base != nullptr) {
#if HPL_HAVE_MMAP
    ::munmap(seg->map_base, seg->map_len);
#endif
    seg->map_base = nullptr;
    seg->map_len = 0;
  }
  seg->heap.clear();
  seg->heap.shrink_to_fit();
  seg->state = SegmentState::kOnDisk;
}

const void* SegmentedSpaceStore::FaultIn(SegmentMeta* seg) {
  std::unique_lock<std::mutex> lock(mu_);
  // Double-check: another thread may have faulted it in while we waited.
  if (const void* p = seg->data.load(std::memory_order_acquire);
      p != nullptr) {
    seg->lru_tick = ++lru_clock_;
    return p;
  }
  return FaultInLocked(EntryOf(seg));
}

const void* SegmentedSpaceStore::FaultInLocked(Entry& e) {
  auto* seg = e.meta.get();
  if (const void* p = seg->data.load(std::memory_order_acquire);
      p != nullptr) {
    return p;
  }
  const std::string& path = seg->file;
  if (path.empty()) SegError(e.tag + "-" + std::to_string(e.index),
                             "segment missing from directory (never spilled)");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    SegError(path, std::string("missing segment: ") + std::strerror(errno));
  unsigned char header[kSegHeaderBytes];
  if (std::fread(header, 1, kSegHeaderBytes, f) != kSegHeaderBytes) {
    std::fclose(f);
    SegError(path, "truncated header (short read)");
  }
  if (std::memcmp(header, kSegMagic, 8) != 0) {
    std::fclose(f);
    SegError(path, "bad magic (not an hpl segment file)");
  }
  if (const std::uint32_t v = GetU32(header + 8); v != kSegVersion) {
    std::fclose(f);
    SegError(path, "unsupported segment version " + std::to_string(v) +
                       " (expected " + std::to_string(kSegVersion) + ")");
  }
  const std::uint64_t bytes = GetU64(header + 24);
  const std::uint64_t want_sum = GetU64(header + 32);
  if (bytes != seg->bytes) {
    std::fclose(f);
    SegError(path, "payload size mismatch (directory says " +
                       std::to_string(seg->bytes) + ", file says " +
                       std::to_string(bytes) + ")");
  }
  // Verify the payload is actually on disk before touching it: mapping past
  // EOF raises SIGBUS on access, so a short file must become a named error
  // here, not a crash inside the checksum scan.
  if (std::fseek(f, 0, SEEK_END) != 0 ||
      std::ftell(f) < static_cast<long>(kSegHeaderBytes + bytes)) {
    std::fclose(f);
    SegError(path, "truncated payload (short read)");
  }
  std::fseek(f, static_cast<long>(kSegHeaderBytes), SEEK_SET);
  const void* published = nullptr;
#if HPL_HAVE_MMAP
  {
    // Map header + payload read-only; payload starts at the 8-byte-aligned
    // kSegHeaderBytes offset.
    const long fd = ::fileno(f);
    const std::size_t map_len = kSegHeaderBytes + bytes;
    void* base = bytes == 0
                     ? nullptr
                     : ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE,
                              static_cast<int>(fd), 0);
    if (base != MAP_FAILED && base != nullptr) {
      const void* payload =
          static_cast<const unsigned char*>(base) + kSegHeaderBytes;
      if (Fnv1a(payload, bytes) != want_sum) {
        ::munmap(base, map_len);
        std::fclose(f);
        SegError(path, "checksum mismatch (corrupt segment)");
      }
      seg->map_base = base;
      seg->map_len = map_len;
      seg->state = SegmentState::kMapped;
      published = payload;
    }
  }
#endif
  if (published == nullptr) {
    // Heap fallback (mmap unavailable, failed, or zero-byte payload).
    // Reserve at least one byte so data() is non-null and publishable.
    seg->heap.reserve(bytes != 0 ? bytes : 1);
    seg->heap.resize(bytes);
    if (bytes != 0 &&
        std::fread(seg->heap.data(), 1, bytes, f) != bytes) {
      std::fclose(f);
      SegError(path, "truncated payload (short read)");
    }
    if (Fnv1a(seg->heap.data(), bytes) != want_sum) {
      std::fclose(f);
      SegError(path, "checksum mismatch (corrupt segment)");
    }
    seg->state = SegmentState::kResident;
    published = seg->heap.data();
  }
  std::fclose(f);
  seg->dirty = false;
  seg->lru_tick = ++lru_clock_;
  ++faults_;
  ++seg->faults;
  seg->data.store(published, std::memory_order_release);
  return published;
}

std::size_t SegmentedSpaceStore::EnforceBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.residency_budget_bytes == 0) return 0;
  std::uint64_t in_memory = 0;
  std::vector<Entry*> candidates;
  for (auto& e : entries_) {
    auto* seg = e->meta.get();
    if (seg->state == SegmentState::kOnDisk) continue;
    in_memory += seg->bytes;
    if (seg->sealed && seg->pins == 0) candidates.push_back(e.get());
  }
  if (in_memory <= options_.residency_budget_bytes) return 0;
  std::sort(candidates.begin(), candidates.end(), [](Entry* a, Entry* b) {
    return a->meta->lru_tick < b->meta->lru_tick;
  });
  std::size_t spilled = 0;
  for (Entry* e : candidates) {
    if (in_memory <= options_.residency_budget_bytes) break;
    in_memory -= e->meta->bytes;
    SpillLocked(*e);
    ++spilled;
  }
  return spilled;
}

std::size_t SegmentedSpaceStore::SpillSealed() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t spilled = 0;
  for (auto& e : entries_) {
    auto* seg = e->meta.get();
    if (seg->sealed && seg->pins == 0 &&
        seg->state != SegmentState::kOnDisk) {
      SpillLocked(*e);
      ++spilled;
    }
  }
  return spilled;
}

void SegmentedSpaceStore::MakeAllResident() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : entries_) {
    auto* seg = e->meta.get();
    if (seg->state == SegmentState::kOnDisk) FaultInLocked(*e);
    if (seg->state == SegmentState::kMapped) {
      const auto* p = static_cast<const unsigned char*>(
          seg->data.load(std::memory_order_acquire));
      seg->heap.assign(p, p + seg->bytes);
#if HPL_HAVE_MMAP
      ::munmap(seg->map_base, seg->map_len);
#endif
      seg->map_base = nullptr;
      seg->map_len = 0;
      seg->state = SegmentState::kResident;
      seg->data.store(seg->heap.data(), std::memory_order_release);
    }
  }
}

SegmentedSpaceStore::Stats SegmentedSpaceStore::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.segments = entries_.size();
  s.spill_faults = faults_;
  s.spill_writes = writes_;
  for (const auto& e : entries_) {
    const auto* seg = e->meta.get();
    switch (seg->state) {
      case SegmentState::kResident:
        ++s.resident_segments;
        s.bytes_resident += seg->bytes;
        break;
      case SegmentState::kMapped:
        ++s.mapped_segments;
        s.bytes_mapped += seg->bytes;
        break;
      case SegmentState::kOnDisk:
        ++s.spilled_segments;
        s.bytes_spilled += seg->bytes;
        break;
    }
  }
  return s;
}

std::vector<SegmentedSpaceStore::SegmentInfo> SegmentedSpaceStore::Residency()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentInfo> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    SegmentInfo info;
    info.tag = e->tag;
    info.index = e->index;
    info.state = e->meta->state;
    info.bytes = e->meta->bytes;
    info.pins = e->meta->pins;
    info.faults = e->meta->faults;
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace internal
}  // namespace hpl
