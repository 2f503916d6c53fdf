#include "core/serialization.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

namespace hpl {
namespace {

std::string EventToken(const Event& e) {
  switch (e.kind) {
    case EventKind::kSend: {
      std::string out = std::to_string(e.process) + ">" +
                        std::to_string(e.peer) + ":" +
                        std::to_string(e.message);
      if (!e.label.empty()) out += "/" + e.label;
      return out;
    }
    case EventKind::kReceive: {
      std::string out = std::to_string(e.process) + "<" +
                        std::to_string(e.peer) + ":" +
                        std::to_string(e.message);
      if (!e.label.empty()) out += "/" + e.label;
      return out;
    }
    case EventKind::kInternal:
      return std::to_string(e.process) + "." + e.label;
  }
  throw ModelError("EventToken: bad kind");
}

// Strict decimal parse of the whole of `text`: rejects empty input, signs,
// non-digits, trailing garbage and overflow (std::stoi would accept "1x" as
// 1, which is exactly the silent-garbage failure mode this file must not
// have).  `what` names the field for the error message.
template <typename Int>
Int ParseTokenNumber(std::string_view text, const char* what) {
  Int value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range)
    throw ModelError(std::string(what) + " '" + std::string(text) +
                     "' is out of range");
  if (ec != std::errc{} || end != text.data() + text.size() || text.empty())
    throw ModelError(std::string(what) + " '" + std::string(text) +
                     "' is not a number");
  return value;
}

Event TokenToEvent(const std::string& token) {
  // Find the discriminating character after the leading process number.
  std::size_t i = 0;
  while (i < token.size() &&
         std::isdigit(static_cast<unsigned char>(token[i])))
    ++i;
  if (i == 0 || i == token.size())
    throw ModelError("expected <proc>('>'|'<'|'.')..., got '" + token + "'");
  const std::string_view view(token);
  const int first = ParseTokenNumber<int>(view.substr(0, i), "process");
  const char kind = token[i];
  const std::string_view rest = view.substr(i + 1);

  if (kind == '.') {
    return Internal(first, std::string(rest));
  }
  if (kind == '>' || kind == '<') {
    const auto colon = rest.find(':');
    if (colon == std::string_view::npos)
      throw ModelError("missing ':' after peer process");
    const int second = ParseTokenNumber<int>(rest.substr(0, colon), "process");
    std::string_view tail = rest.substr(colon + 1);
    std::string label;
    const auto slash = tail.find('/');
    if (slash != std::string_view::npos) {
      label = std::string(tail.substr(slash + 1));
      tail = tail.substr(0, slash);
    }
    const MessageId message = ParseTokenNumber<MessageId>(tail, "message id");
    return kind == '>' ? Send(first, second, message, label)
                       : Receive(first, second, message, label);
  }
  throw ModelError("bad event separator '" + std::string(1, kind) +
                   "' (expected '>', '<' or '.')");
}

}  // namespace

std::string FormatComputation(const Computation& x) {
  std::string out;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i) out += " ";
    out += EventToken(x.at(i));
  }
  return out;
}

Computation ParseComputation(const std::string& text) {
  std::istringstream stream(text);
  std::vector<Event> events;
  Computation built;  // prefix validated so far
  std::string token;
  std::size_t index = 0;  // 1-based token index, for error context
  while (stream >> token) {
    ++index;
    const std::string context =
        "ParseComputation: token #" + std::to_string(index) + " '" + token +
        "': ";
    Event e;
    try {
      e = TokenToEvent(token);
    } catch (const ModelError& err) {
      throw ModelError(context + err.what());
    }
    // Validate incrementally so the error names the offending event, not
    // just "the sequence is invalid".
    std::string why;
    if (!CanExtend(built, e, &why)) throw ModelError(context + why);
    events.push_back(std::move(e));
    built = Computation::TrustedFromEvents(events);
  }
  return built;
}

// --- Binary space snapshots (hpl-space-v3) ---------------------------------

namespace {

constexpr char kSnapshotMagic[8] = {'H', 'P', 'L', 'S', 'P', 'A', 'C', 'E'};

// Counts in a snapshot beyond this are assumed corruption, not data: the
// columnar store itself caps classes at EnumerationLimits::max_classes
// (default 20M), so a multi-billion count means a garbage header.  Counts
// below it that size an allocation are further checked against the bytes
// left in the input (Reader::RequireFits).
constexpr std::uint64_t kMaxPlausibleCount = std::uint64_t{1} << 33;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Little-endian writer over an ostream, folding an FNV-1a checksum of every
// byte it emits.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void Bytes(const void* data, std::size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= kFnvPrime;
    }
  }
  void U8(std::uint8_t v) { Bytes(&v, 1); }
  void U16(std::uint16_t v) {
    const unsigned char b[2] = {static_cast<unsigned char>(v),
                                static_cast<unsigned char>(v >> 8)};
    Bytes(b, 2);
  }
  void U32(std::uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Bytes(b, 4);
  }
  void U64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Bytes(b, 8);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void U32Column(const std::vector<std::uint32_t>& column) {
    U64(column.size());
    for (std::uint32_t v : column) U32(v);
  }
  void U32SegColumn(const internal::SegColumn<std::uint32_t>& column) {
    U64(column.size());
    for (std::size_t i = 0; i < column.size(); ++i) U32(column[i]);
  }
  // Emits the running checksum (not folded into itself) and ends the file.
  void Checksum() {
    const std::uint64_t sum = hash_;
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
      b[i] = static_cast<unsigned char>(sum >> (8 * i));
    out_.write(reinterpret_cast<const char*>(b), 8);
  }
  bool ok() const { return static_cast<bool>(out_); }

 private:
  std::ostream& out_;
  std::uint64_t hash_ = kFnvOffset;
};

// Little-endian reader mirroring Writer; throws ModelError with `where`
// context on truncation, and folds the same checksum for the final check.
// It knows how many input bytes remain (a stream that cannot seek is read
// into memory first), so no count read from the file can size an
// allocation beyond what the file can still deliver.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(&in) {
    const std::istream::pos_type here = in.tellg();
    if (here != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
      remaining_ = static_cast<std::uint64_t>(in.tellg() - here);
      in.seekg(here);
    } else {
      in.clear();
      std::string all(std::istreambuf_iterator<char>(in), {});
      remaining_ = all.size();
      buffered_.str(std::move(all));
      in_ = &buffered_;
    }
  }

  void Bytes(void* data, std::size_t n, const char* where) {
    in_->read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_->gcount()) != n)
      throw ModelError(std::string("LoadSpaceSnapshot: truncated snapshot (") +
                       where + ")");
    remaining_ -= std::min<std::uint64_t>(remaining_, n);  // a growing file
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= kFnvPrime;
    }
  }
  std::uint8_t U8(const char* where) {
    std::uint8_t v;
    Bytes(&v, 1, where);
    return v;
  }
  std::uint16_t U16(const char* where) {
    unsigned char b[2];
    Bytes(b, 2, where);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  std::uint32_t U32(const char* where) {
    unsigned char b[4];
    Bytes(b, 4, where);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t U64(const char* where) {
    unsigned char b[8];
    Bytes(b, 8, where);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t Count(const char* where) {
    const std::uint64_t n = U64(where);
    if (n > kMaxPlausibleCount)
      throw ModelError(std::string("LoadSpaceSnapshot: implausible count ") +
                       std::to_string(n) + " (" + where + "); corrupt file?");
    return n;
  }
  // Throws unless `n` elements of at least `min_bytes` wire bytes each can
  // still be read; call it before anything is reserved or sized by `n`.
  void RequireFits(std::uint64_t n, std::uint64_t min_bytes,
                   const char* where) const {
    if (n > remaining_ / min_bytes)
      throw ModelError(std::string("LoadSpaceSnapshot: truncated snapshot (") +
                       where + ": count " + std::to_string(n) + " of " +
                       std::to_string(min_bytes) + "-byte elements, " +
                       std::to_string(remaining_) + " bytes remain)");
  }
  std::string Str(const char* where) {
    const std::uint32_t n = U32(where);
    RequireFits(n, 1, where);
    std::string s(n, '\0');
    Bytes(s.data(), n, where);
    return s;
  }
  std::vector<std::uint32_t> U32Column(const char* where) {
    const std::uint64_t n = Count(where);
    RequireFits(n, 4, where);
    std::vector<std::uint32_t> column;
    column.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) column.push_back(U32(where));
    return column;
  }
  // Reads the trailing checksum (without folding it) and verifies it
  // matches everything read so far.
  void VerifyChecksum() {
    const std::uint64_t expected = hash_;
    unsigned char b[8];
    in_->read(reinterpret_cast<char*>(b), 8);
    if (in_->gcount() != 8)
      throw ModelError("LoadSpaceSnapshot: truncated snapshot (checksum)");
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
      stored |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    if (stored != expected)
      throw ModelError("LoadSpaceSnapshot: checksum mismatch (corrupt file)");
  }

 private:
  std::istream* in_;
  std::istringstream buffered_;  // the input, when it cannot seek
  std::uint64_t remaining_ = 0;  // input bytes not yet read
  std::uint64_t hash_ = kFnvOffset;
};

// FNV-1a folds over the little-endian wire form of column elements — the
// per-column checksums in the segment directory.
std::uint64_t FoldU16(std::uint64_t h, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}
std::uint64_t FoldU32(std::uint64_t h, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}
std::uint64_t FoldU64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

// One segment-directory row: a segmented column's identity and payload
// checksum, written in the header so corruption is attributed by name.
struct SegDirEntry {
  std::string tag;
  std::uint64_t elems = 0;
  std::uint32_t segments = 0;
  std::uint64_t checksum = 0;
};

// Reads `n` u32 elements into a segmented column in chunks (the bulk-append
// path of a budget-bounded load), spilling sealed segments as it goes, and
// returns the FNV-1a checksum of the streamed payload for the directory
// check.
std::uint64_t ReadU32SegColumn(Reader& r,
                               internal::SegColumn<std::uint32_t>& column,
                               std::uint64_t n, const char* where,
                               internal::SegmentedSpaceStore* store) {
  std::uint64_t h = kFnvOffset;
  std::uint32_t buf[4096];
  while (n > 0) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, 4096));
    for (std::size_t i = 0; i < take; ++i) {
      buf[i] = r.U32(where);
      h = FoldU32(h, buf[i]);
    }
    column.Append(buf, take);
    n -= take;
    if (store != nullptr && store->out_of_core()) store->EnforceBudget();
  }
  return h;
}

// Header (everything ReadSpaceSnapshotInfo needs), after the magic: version,
// shape flags, name, the summary counts, the frontier fields and the segment
// directory.
void WriteHeader(Writer& w, const SpaceSnapshotInfo& info,
                 const std::vector<SegDirEntry>& dir) {
  w.Bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.U32(info.version);
  w.U32(static_cast<std::uint32_t>(info.num_processes));
  w.U8(info.truncated ? 1 : 0);
  w.U8(info.canonicalize ? 1 : 0);
  w.U16(0);  // reserved
  w.Str(info.system_name);
  w.U64(info.classes);
  w.U64(info.pool_events);
  w.U64(info.group_indexes);
  w.U8(info.frontier);
  w.U32(info.built_depth);
  w.U64(info.frontier_begin);
  w.U32(info.segment_shift);
  w.U32(static_cast<std::uint32_t>(dir.size()));
  for (const SegDirEntry& e : dir) {
    w.Str(e.tag);
    w.U64(e.elems);
    w.U32(e.segments);
    w.U64(e.checksum);
  }
}

SpaceSnapshotInfo ReadHeader(Reader& r,
                             std::vector<SegDirEntry>* dir = nullptr) {
  char magic[8];
  r.Bytes(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0)
    throw ModelError("LoadSpaceSnapshot: not an hpl-space snapshot "
                     "(bad magic)");
  SpaceSnapshotInfo info;
  info.version = r.U32("version");
  if (info.version != kSpaceSnapshotVersion)
    throw ModelError("LoadSpaceSnapshot: unsupported snapshot version " +
                     std::to_string(info.version) +
                     " (this build reads only version " +
                     std::to_string(kSpaceSnapshotVersion) +
                     "; re-save the snapshot from its system)");
  const std::uint32_t np = r.U32("num_processes");
  if (np == 0 || np > static_cast<std::uint32_t>(kMaxProcesses))
    throw ModelError("LoadSpaceSnapshot: bad process count " +
                     std::to_string(np));
  info.num_processes = static_cast<int>(np);
  info.truncated = r.U8("truncated") != 0;
  info.canonicalize = r.U8("canonicalize") != 0;
  r.U16("reserved");
  info.system_name = r.Str("system_name");
  info.classes = r.Count("classes");
  info.pool_events = r.Count("pool_events");
  info.group_indexes = r.Count("group_indexes");
  info.frontier = r.U8("frontier state");
  if (info.frontier > 3)
    throw ModelError("LoadSpaceSnapshot: bad frontier state " +
                     std::to_string(info.frontier));
  info.built_depth = r.U32("built depth");
  info.frontier_begin = r.U64("frontier begin");
  if (info.frontier == 2 && info.frontier_begin >= info.classes)
    throw ModelError(
        "LoadSpaceSnapshot: capped snapshot with out-of-range frontier "
        "begin " +
        std::to_string(info.frontier_begin));
  info.segment_shift = r.U32("segment shift");
  if (info.segment_shift >= 32)
    throw ModelError("LoadSpaceSnapshot: bad segment shift " +
                     std::to_string(info.segment_shift));
  const std::uint32_t ncols = r.U32("segment column count");
  if (ncols > 64)
    throw ModelError("LoadSpaceSnapshot: implausible segment column count " +
                     std::to_string(ncols) + "; corrupt file?");
  info.segment_columns = ncols;
  for (std::uint32_t i = 0; i < ncols; ++i) {
    SegDirEntry e;
    e.tag = r.Str("segment column tag");
    e.elems = r.Count("segment column elems");
    e.segments = r.U32("segment column segments");
    e.checksum = r.U64("segment column checksum");
    info.segments += e.segments;
    if (dir != nullptr) dir->push_back(e);
  }
  return info;
}

// Wire size of an event with an empty label: the floor a pool count is
// checked against before the pool is reserved.
constexpr std::uint64_t kMinEventBytes = 4 + 1 + 8 + 4 + 4;

void WriteEvent(Writer& w, const Event& e) {
  w.U32(static_cast<std::uint32_t>(e.process));
  w.U8(static_cast<std::uint8_t>(e.kind));
  w.U64(static_cast<std::uint64_t>(e.message));
  w.U32(static_cast<std::uint32_t>(e.peer));
  w.Str(e.label);
}

Event ReadEvent(Reader& r) {
  Event e;
  e.process = static_cast<ProcessId>(
      static_cast<std::int32_t>(r.U32("event process")));
  const std::uint8_t kind = r.U8("event kind");
  if (kind > static_cast<std::uint8_t>(EventKind::kReceive))
    throw ModelError("LoadSpaceSnapshot: bad event kind " +
                     std::to_string(kind));
  e.kind = static_cast<EventKind>(kind);
  e.message = static_cast<MessageId>(r.U64("event message"));
  e.peer =
      static_cast<ProcessId>(static_cast<std::int32_t>(r.U32("event peer")));
  e.label = r.Str("event label");
  return e;
}

}  // namespace

namespace internal {

// The one place outside ComputationSpace allowed to touch its columns.
struct SpaceSnapshotIO {
  // Shape of the builder frontier a save records / a load restores.  The
  // u8 wire values match SpaceBuilder::FrontierState.
  struct FrontierMeta {
    std::uint8_t state = 0;  // sealed
    std::uint32_t built_depth = 0;
    std::uint64_t begin = 0;
  };

  // Per-column FNV-1a checksums over each column's little-endian wire form,
  // recorded in the segment directory.  The links column interleaves
  // field widths, so it gets its own fold.
  static std::uint64_t LinksChecksum(const ComputationSpace& space) {
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < space.links_.size(); ++i) {
      const ComputationSpace::ClassLink link = space.links_[i];
      h = FoldU32(h, link.parent);
      h = FoldU32(h, link.event);
      h = FoldU16(h, link.pos);
      h = FoldU16(h, link.length);
    }
    return h;
  }
  static std::uint64_t U64ColumnChecksum(
      const internal::SegColumn<std::size_t>& column) {
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < column.size(); ++i)
      h = FoldU64(h, static_cast<std::uint64_t>(column[i]));
    return h;
  }
  static std::uint64_t U32ColumnChecksum(
      const internal::SegColumn<std::uint32_t>& column) {
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < column.size(); ++i)
      h = FoldU32(h, column[i]);
    return h;
  }

  static void Save(const ComputationSpace& space, std::ostream& out,
                   const FrontierMeta& frontier) {
    // Group indexes are built lazily under the space's mutex; collect the
    // published ones under it, then write sorted by mask so identical
    // spaces serialize byte-identically regardless of build order.
    std::vector<const ComputationSpace::GroupIndex*> groups;
    {
      std::lock_guard<std::mutex> lock(*space.group_mutex_);
      groups.reserve(space.group_index_.size());
      for (const auto& [mask, index] : space.group_index_)
        groups.push_back(index.get());
    }
    std::sort(groups.begin(), groups.end(),
              [](const auto* a, const auto* b) { return a->mask_ < b->mask_; });

    // Faulting every element twice (once for the directory checksums, once
    // for the payload) is the price of writing the checksums in the header;
    // trim the residency budget between passes so saving an out-of-core
    // space never exceeds it.
    internal::SegmentedSpaceStore& store = *space.store_;
    const auto trim = [&store] {
      if (store.out_of_core()) store.EnforceBudget();
    };

    Writer w(out);
    SpaceSnapshotInfo info;
    info.version = kSpaceSnapshotVersion;
    info.system_name = space.system_name_;
    info.num_processes = space.num_processes_;
    info.truncated = space.truncated_;
    info.canonicalize = space.canonicalize_;
    info.classes = space.links_.size();
    info.pool_events = space.event_pool_.size();
    info.group_indexes = groups.size();
    info.frontier = frontier.state;
    info.built_depth = frontier.built_depth;
    info.frontier_begin = frontier.begin;

    // The snapshot is a logical serialization: the directory describes the
    // columns at the format's canonical row-group granularity, NOT at the
    // in-memory store's shift, so a budget-built space and a resident build
    // of the same system save byte-identical files.
    std::vector<SegDirEntry> dir;
    info.segment_shift = SegmentOptions{}.segment_shift;
    const std::size_t rows_per_seg = std::size_t{1} << info.segment_shift;
    const auto entry = [&](const char* tag, std::uint64_t elems,
                           std::size_t rows, std::uint64_t checksum) {
      const std::size_t segs = (rows + rows_per_seg - 1) / rows_per_seg;
      dir.push_back(SegDirEntry{tag, elems, static_cast<std::uint32_t>(segs),
                                checksum});
      trim();
    };
    entry("links", space.links_.size(), space.links_.rows(),
          LinksChecksum(space));
    entry("canonh", space.canon_hash_.size(), space.canon_hash_.rows(),
          U64ColumnChecksum(space.canon_hash_));
    entry("canoni", space.canon_id_.size(), space.canon_id_.rows(),
          U32ColumnChecksum(space.canon_id_));
    entry("proj", space.proj_class_.size(), space.proj_class_.rows(),
          U32ColumnChecksum(space.proj_class_));
    entry("succo", space.succ_offsets_.size(), space.succ_offsets_.rows(),
          U32ColumnChecksum(space.succ_offsets_));
    entry("succc", space.succ_class_.size(), space.succ_class_.rows(),
          U32ColumnChecksum(space.succ_class_));
    entry("succe", space.succ_event_.size(), space.succ_event_.rows(),
          U32ColumnChecksum(space.succ_event_));
    info.segment_columns = dir.size();
    for (const SegDirEntry& e : dir) info.segments += e.segments;
    WriteHeader(w, info, dir);

    for (const Event& e : space.event_pool_) WriteEvent(w, e);
    for (std::size_t i = 0; i < space.links_.size(); ++i) {
      const ComputationSpace::ClassLink link = space.links_[i];
      w.U32(link.parent);
      w.U32(link.event);
      w.U16(link.pos);
      w.U16(link.length);
    }
    trim();
    for (std::size_t i = 0; i < space.canon_hash_.size(); ++i)
      w.U64(space.canon_hash_[i]);
    trim();
    for (std::size_t i = 0; i < space.canon_id_.size(); ++i)
      w.U32(space.canon_id_[i]);
    trim();
    w.U32SegColumn(space.proj_class_);
    trim();
    for (int p = 0; p < space.num_processes_; ++p) {
      w.U32Column(space.bucket_offsets_[static_cast<std::size_t>(p)]);
      w.U32Column(space.bucket_ids_[static_cast<std::size_t>(p)]);
    }
    w.U32SegColumn(space.succ_offsets_);
    trim();
    w.U32SegColumn(space.succ_class_);
    trim();
    w.U32SegColumn(space.succ_event_);
    trim();
    for (const auto* g : groups) {
      w.U64(g->mask_);
      w.U32Column(g->cls_);
      w.U32Column(g->offsets_);
      w.U32Column(g->ids_);
    }
    w.Checksum();
    if (!w.ok())
      throw ModelError("SaveSpaceSnapshot: write failed (stream error)");
  }

  static ComputationSpace Load(std::istream& in, const SegmentOptions& segments,
                               SpaceSnapshotInfo* info_out = nullptr) {
    Reader r(in);
    std::vector<SegDirEntry> dir;
    const SpaceSnapshotInfo info = ReadHeader(r, &dir);
    if (info_out != nullptr) *info_out = info;
    if (dir.size() != 7)
      throw ModelError(
          "LoadSpaceSnapshot: bad segment directory (expected 7 columns, "
          "found " +
          std::to_string(dir.size()) + ")");

    ComputationSpace space;
    space.num_processes_ = info.num_processes;
    space.truncated_ = info.truncated;
    space.canonicalize_ = info.canonicalize;
    space.system_name_ = info.system_name;
    // Columns rebuild into the *caller's* segment geometry; the file's
    // segment_shift is informational.
    space.InitColumns(segments);
    internal::SegmentedSpaceStore& store = *space.store_;
    const auto trim = [&store] {
      if (store.out_of_core()) store.EnforceBudget();
    };
    const auto check_column = [&](std::size_t idx, const char* tag,
                                  std::uint64_t elems, std::uint64_t checksum) {
      const SegDirEntry& e = dir[idx];
      if (e.tag != tag)
        throw ModelError("LoadSpaceSnapshot: segment directory expects column "
                         "'" +
                         std::string(tag) + "' at slot " + std::to_string(idx) +
                         ", found '" + e.tag + "'");
      if (e.elems != elems)
        throw ModelError("LoadSpaceSnapshot: column '" + std::string(tag) +
                         "' element count mismatch (directory says " +
                         std::to_string(e.elems) + ", payload has " +
                         std::to_string(elems) + ")");
      if (e.checksum != checksum)
        throw ModelError("LoadSpaceSnapshot: column '" + std::string(tag) +
                         "' checksum mismatch (corrupt snapshot)");
    };

    const std::size_t classes = info.classes;
    r.RequireFits(info.pool_events, kMinEventBytes, "pool_events");
    space.event_pool_.reserve(info.pool_events);
    for (std::uint64_t i = 0; i < info.pool_events; ++i)
      space.event_pool_.push_back(ReadEvent(r));

    std::uint64_t fold = kFnvOffset;
    for (std::size_t i = 0; i < classes; ++i) {
      ComputationSpace::ClassLink link;
      link.parent = r.U32("link parent");
      link.event = r.U32("link event");
      link.pos = r.U16("link pos");
      link.length = r.U16("link length");
      if (i > 0 && (link.parent >= i ||
                    link.event >= space.event_pool_.size()))
        throw ModelError("LoadSpaceSnapshot: class " + std::to_string(i) +
                         " references out-of-range parent or event");
      fold = FoldU32(fold, link.parent);
      fold = FoldU32(fold, link.event);
      fold = FoldU16(fold, link.pos);
      fold = FoldU16(fold, link.length);
      space.links_.push_back(link);
      if ((i & 0xfff) == 0xfff) trim();
    }
    check_column(0, "links", classes, fold);
    trim();

    fold = kFnvOffset;
    for (std::size_t i = 0; i < classes; ++i) {
      const std::uint64_t h = r.U64("canon hash");
      fold = FoldU64(fold, h);
      space.canon_hash_.push_back(static_cast<std::size_t>(h));
      if ((i & 0xfff) == 0xfff) trim();
    }
    check_column(1, "canonh", classes, fold);
    trim();
    fold = kFnvOffset;
    for (std::size_t i = 0; i < classes; ++i) {
      const std::uint32_t id = r.U32("canon id");
      if (id >= classes)
        throw ModelError("LoadSpaceSnapshot: canonical index id out of range");
      fold = FoldU32(fold, id);
      space.canon_id_.push_back(id);
      if ((i & 0xfff) == 0xfff) trim();
    }
    check_column(2, "canoni", classes, fold);
    trim();

    const std::uint64_t proj_elems = r.Count("projection classes");
    if (proj_elems !=
        classes * static_cast<std::uint64_t>(info.num_processes))
      throw ModelError("LoadSpaceSnapshot: projection column size mismatch");
    check_column(3, "proj", proj_elems,
                 ReadU32SegColumn(r, space.proj_class_, proj_elems,
                                  "projection classes", &store));

    space.bucket_offsets_.resize(static_cast<std::size_t>(info.num_processes));
    space.bucket_ids_.resize(static_cast<std::size_t>(info.num_processes));
    for (int p = 0; p < info.num_processes; ++p) {
      auto& offsets = space.bucket_offsets_[static_cast<std::size_t>(p)];
      auto& ids = space.bucket_ids_[static_cast<std::size_t>(p)];
      offsets = r.U32Column("bucket offsets");
      ids = r.U32Column("bucket ids");
      if (offsets.empty() || offsets.back() != ids.size() ||
          ids.size() != classes)
        throw ModelError(
            "LoadSpaceSnapshot: bucket CSR columns inconsistent for process " +
            std::to_string(p));
    }

    const std::uint64_t succo_elems = r.Count("successor offsets");
    check_column(4, "succo", succo_elems,
                 ReadU32SegColumn(r, space.succ_offsets_, succo_elems,
                                  "successor offsets", &store));
    const std::uint64_t succc_elems = r.Count("successor classes");
    check_column(5, "succc", succc_elems,
                 ReadU32SegColumn(r, space.succ_class_, succc_elems,
                                  "successor classes", &store));
    const std::uint64_t succe_elems = r.Count("successor events");
    check_column(6, "succe", succe_elems,
                 ReadU32SegColumn(r, space.succ_event_, succe_elems,
                                  "successor events", &store));
    if (space.succ_offsets_.size() != classes + (classes ? 1 : 0) ||
        (classes && space.succ_offsets_.back() != space.succ_class_.size()) ||
        space.succ_class_.size() != space.succ_event_.size())
      throw ModelError("LoadSpaceSnapshot: successor CSR columns "
                       "inconsistent");
    trim();

    std::uint64_t last_mask = 0;
    for (std::uint64_t i = 0; i < info.group_indexes; ++i) {
      auto index = std::make_unique<ComputationSpace::GroupIndex>();
      index->mask_ = r.U64("group mask");
      if (i > 0 && index->mask_ <= last_mask)
        throw ModelError("LoadSpaceSnapshot: group indexes out of order");
      last_mask = index->mask_;
      index->cls_ = r.U32Column("group classes");
      index->offsets_ = r.U32Column("group offsets");
      index->ids_ = r.U32Column("group ids");
      if (index->cls_.size() != classes || index->offsets_.empty() ||
          index->offsets_.back() != index->ids_.size() ||
          index->ids_.size() != classes)
        throw ModelError("LoadSpaceSnapshot: group index columns "
                         "inconsistent");
      space.group_index_.emplace(index->mask_, std::move(index));
    }

    r.VerifyChecksum();

    space.built_depth_ = static_cast<int>(info.built_depth);
    trim();
    return space;
  }

  // The frontier a bare ComputationSpace save records: an exhaustive space
  // is `complete` (loadable into a builder whose Deepen is a no-op), a
  // truncated one lost its frontier when the builder was torn down, so it
  // is `sealed`.
  static FrontierMeta SealedFrontier(const ComputationSpace& space) {
    FrontierMeta meta;
    meta.state = space.truncated_ ? 0 : 1;
    meta.built_depth = static_cast<std::uint32_t>(space.built_depth_);
    return meta;
  }

  static FrontierMeta BuilderFrontier(const SpaceBuilder& builder) {
    FrontierMeta meta;
    if (builder.sealed_) {
      meta.state = 0;
    } else if (builder.ingested_) {
      meta.state = 3;
    } else if (builder.complete_) {
      meta.state = 1;
    } else {
      meta.state = 2;
      meta.begin = builder.FrontierBegin();
    }
    meta.built_depth =
        static_cast<std::uint32_t>(builder.space_->built_depth_);
    return meta;
  }

  static SpaceBuilder LoadBuilder(const System& system, std::istream& in,
                                  const EnumerationLimits& limits) {
    SpaceSnapshotInfo info;
    auto space = std::unique_ptr<ComputationSpace>(
        new ComputationSpace(Load(in, limits.segments, &info)));
    if (info.system_name != system.Name() ||
        info.num_processes != system.NumProcesses())
      throw ModelError(
          "LoadSpaceBuilderSnapshot: snapshot was enumerated from system '" +
          info.system_name + "' (" + std::to_string(info.num_processes) +
          " processes), not '" + system.Name() + "' (" +
          std::to_string(system.NumProcesses()) + ")");
    SpaceBuilder builder;
    builder.AdoptSpace(std::move(space),
                       static_cast<SpaceBuilder::FrontierState>(info.frontier),
                       info.frontier_begin, &system, limits);
    return builder;
  }
};

}  // namespace internal

namespace {

// The file forms of the stream entry points; `who` names the entry point in
// I/O errors.
std::ifstream OpenSnapshot(const std::string& path, const char* who) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ModelError(std::string(who) + ": cannot open '" + path + "'");
  return in;
}

template <typename Save>
void WriteSnapshot(const std::string& path, const char* who, Save save) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw ModelError(std::string(who) + ": cannot open '" + path +
                     "' for writing");
  save(out);
  out.flush();
  if (!out)
    throw ModelError(std::string(who) + ": write to '" + path + "' failed");
}

}  // namespace

void SaveSpaceSnapshot(const ComputationSpace& space, std::ostream& out) {
  internal::SpaceSnapshotIO::Save(
      space, out, internal::SpaceSnapshotIO::SealedFrontier(space));
}

void SaveSpaceSnapshot(const ComputationSpace& space, const std::string& path) {
  WriteSnapshot(path, "SaveSpaceSnapshot",
                [&](std::ostream& out) { SaveSpaceSnapshot(space, out); });
}

void SaveSpaceBuilderSnapshot(const SpaceBuilder& builder, std::ostream& out) {
  if (!builder.has_space())
    throw ModelError("SaveSpaceBuilderSnapshot: builder holds no space");
  internal::SpaceSnapshotIO::Save(
      builder.space(), out,
      internal::SpaceSnapshotIO::BuilderFrontier(builder));
}

void SaveSpaceBuilderSnapshot(const SpaceBuilder& builder,
                              const std::string& path) {
  WriteSnapshot(path, "SaveSpaceBuilderSnapshot", [&](std::ostream& out) {
    SaveSpaceBuilderSnapshot(builder, out);
  });
}

ComputationSpace LoadSpaceSnapshot(std::istream& in,
                                   const SegmentOptions& segments) {
  return internal::SpaceSnapshotIO::Load(in, segments);
}

ComputationSpace LoadSpaceSnapshot(const std::string& path,
                                   const SegmentOptions& segments) {
  std::ifstream in = OpenSnapshot(path, "LoadSpaceSnapshot");
  return internal::SpaceSnapshotIO::Load(in, segments);
}

SpaceBuilder LoadSpaceBuilderSnapshot(const System& system, std::istream& in,
                                      const EnumerationLimits& limits) {
  return internal::SpaceSnapshotIO::LoadBuilder(system, in, limits);
}

SpaceBuilder LoadSpaceBuilderSnapshot(const System& system,
                                      const std::string& path,
                                      const EnumerationLimits& limits) {
  std::ifstream in = OpenSnapshot(path, "LoadSpaceBuilderSnapshot");
  return internal::SpaceSnapshotIO::LoadBuilder(system, in, limits);
}

SpaceSnapshotInfo ReadSpaceSnapshotInfo(std::istream& in) {
  Reader r(in);
  return ReadHeader(r);
}

SpaceSnapshotInfo ReadSpaceSnapshotInfo(const std::string& path) {
  std::ifstream in = OpenSnapshot(path, "ReadSpaceSnapshotInfo");
  return ReadSpaceSnapshotInfo(in);
}

}  // namespace hpl
