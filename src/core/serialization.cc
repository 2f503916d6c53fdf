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

// Records per bulk read or write: one stream call, one checksum loop and
// one column append per chunk instead of one of each per element.
constexpr std::size_t kChunkRecords = 4096;

// Wire width of a splice link: parent u32, event u32, pos u16, length u16.
constexpr std::size_t kLinkBytes = 12;

// Portable little-endian loads and stores.  gcc and clang compile each to
// a single move on a little-endian host, so there is no byte-order fork.
std::uint16_t LoadLe16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
std::uint64_t LoadLe64(const unsigned char* p) {
  return LoadLe32(p) | (static_cast<std::uint64_t>(LoadLe32(p + 4)) << 32);
}
void StoreLe16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}
void StoreLe32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void StoreLe64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

// FNV-1a over p[0, n).
std::uint64_t Fnv(std::uint64_t h, const unsigned char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

// Folds p[0, n) into two FNV-1a chains in one loop — the file checksum and
// a column's directory checksum.  The chains are independent, so their
// multiplies overlap instead of running back to back.
void Fnv2(std::uint64_t& a, std::uint64_t& b, const unsigned char* p,
          std::size_t n) {
  std::uint64_t x = a, y = b;
  for (std::size_t i = 0; i < n; ++i) {
    x = (x ^ p[i]) * kFnvPrime;
    y = (y ^ p[i]) * kFnvPrime;
  }
  a = x;
  b = y;
}

// Little-endian writer over an ostream, folding an FNV-1a checksum of every
// byte it emits.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void Bytes(const void* data, std::size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    hash_ = Fnv(hash_, static_cast<const unsigned char*>(data), n);
  }
  void U8(std::uint8_t v) { Bytes(&v, 1); }
  void U16(std::uint16_t v) {
    unsigned char b[2];
    StoreLe16(b, v);
    Bytes(b, 2);
  }
  void U32(std::uint32_t v) {
    unsigned char b[4];
    StoreLe32(b, v);
    Bytes(b, 4);
  }
  void U64(std::uint64_t v) {
    unsigned char b[8];
    StoreLe64(b, v);
    Bytes(b, 8);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  // Emits the running checksum (not folded into itself) and ends the file.
  void Checksum() {
    unsigned char b[8];
    StoreLe64(b, hash_);
    out_.write(reinterpret_cast<const char*>(b), 8);
  }
  bool ok() const { return static_cast<bool>(out_); }

 private:
  std::ostream& out_;
  std::uint64_t hash_ = kFnvOffset;
};

// Encodes data[0, n) into wire form `wire` bytes per element, kChunkRecords
// at a time (put(dst, element) writes one), and hands each chunk's bytes to
// sink(bytes, size).
template <typename T, typename Put, typename Sink>
void EncodeChunks(const T* data, std::size_t n, std::size_t wire, Put put,
                  Sink&& sink, std::vector<unsigned char>& buf) {
  buf.resize(kChunkRecords * wire);
  for (std::size_t i = 0; i < n; i += kChunkRecords) {
    const std::size_t take = std::min(kChunkRecords, n - i);
    unsigned char* dst = buf.data();
    for (std::size_t k = 0; k < take; ++k, dst += wire) put(dst, data[i + k]);
    sink(buf.data(), take * wire);
  }
}

// The same over a segmented column, one pinned segment at a time, trimming
// the residency budget after each so saving an out-of-core space never
// holds more than one extra segment resident.
template <typename T, typename Put, typename Sink>
void EncodeChunks(const internal::SegColumn<T>& column, std::size_t wire,
                  Put put, Sink&& sink, std::vector<unsigned char>& buf,
                  internal::SegmentedSpaceStore& store) {
  for (std::size_t s = 0; s < column.num_segments(); ++s) {
    internal::SegmentPin pin;
    const T* base = column.PinSegment(s, &pin);
    EncodeChunks(base, column.SegmentEnd(s) - column.SegmentBegin(s), wire,
                 put, sink, buf);
    pin.Release();
    if (store.out_of_core()) store.EnforceBudget();
  }
}

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
    if (Fill(data, n, nullptr) != n) Truncated(where);
  }
  std::uint8_t U8(const char* where) {
    std::uint8_t v;
    Bytes(&v, 1, where);
    return v;
  }
  std::uint16_t U16(const char* where) {
    unsigned char b[2];
    Bytes(b, 2, where);
    return LoadLe16(b);
  }
  std::uint32_t U32(const char* where) {
    unsigned char b[4];
    Bytes(b, 4, where);
    return LoadLe32(b);
  }
  std::uint64_t U64(const char* where) {
    unsigned char b[8];
    Bytes(b, 8, where);
    return LoadLe64(b);
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

  // Reads `count` records of `wire` bytes, kChunkRecords per read call.
  // Each chunk is folded into the file checksum — and into *column, when
  // given, in the same loop — then handed to decode(bytes, first, n) for
  // records [first, first + n).  A short read still decodes the whole
  // records it got, so their defects are reported before the truncation,
  // as element-wise reads did; the truncation error then names
  // field(offset), the field holding the first missing byte.
  template <typename Field, typename Decode>
  void Records(std::uint64_t count, std::size_t wire, std::uint64_t* column,
               Field&& field, Decode&& decode) {
    chunk_.resize(kChunkRecords * wire);
    for (std::uint64_t first = 0; first < count;) {
      const std::size_t want =
          static_cast<std::size_t>(
              std::min<std::uint64_t>(count - first, kChunkRecords)) *
          wire;
      const std::size_t got = Fill(chunk_.data(), want, column);
      const std::size_t whole = got / wire;
      if (whole > 0) decode(chunk_.data(), first, whole);
      if (got != want) Truncated(field(got % wire));
      first += whole;
    }
  }

  // Reads the trailing checksum (without folding it) and verifies it
  // matches everything read so far.
  void VerifyChecksum() {
    const std::uint64_t expected = hash_;
    unsigned char b[8];
    in_->read(reinterpret_cast<char*>(b), 8);
    if (in_->gcount() != 8)
      throw ModelError("LoadSpaceSnapshot: truncated snapshot (checksum)");
    if (LoadLe64(b) != expected)
      throw ModelError("LoadSpaceSnapshot: checksum mismatch (corrupt file)");
  }

 private:
  // One read call for up to `n` bytes; folds what arrived into the file
  // checksum (and *column) and returns its size.
  std::size_t Fill(void* data, std::size_t n, std::uint64_t* column) {
    in_->read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    const auto got = static_cast<std::size_t>(in_->gcount());
    remaining_ -= std::min<std::uint64_t>(remaining_, got);  // a growing file
    const auto* p = static_cast<const unsigned char*>(data);
    if (column != nullptr)
      Fnv2(hash_, *column, p, got);
    else
      hash_ = Fnv(hash_, p, got);
    return got;
  }

  [[noreturn]] static void Truncated(const char* where) {
    throw ModelError(std::string("LoadSpaceSnapshot: truncated snapshot (") +
                     where + ")");
  }

  std::istream* in_;
  std::istringstream buffered_;  // the input, when it cannot seek
  std::uint64_t remaining_ = 0;  // input bytes not yet read
  std::uint64_t hash_ = kFnvOffset;
  std::vector<unsigned char> chunk_;  // one chunk of wire bytes
};

// What a load learns about a u32 column while decoding it, for the id
// checks that run once the file's checksums hold: the largest value at each
// position of a row, the first value, and whether the values never
// decrease.
struct U32Summary {
  explicit U32Summary(std::size_t row = 1) : max(row, 0) {}
  std::vector<std::uint32_t> max;
  std::uint32_t first = 0;
  bool ascending = true;

  // Decodes n little-endian u32s into out[0, n) and folds them in.
  void Decode(const unsigned char* p, std::size_t n, std::uint32_t* out) {
    if (n == 0) return;
    std::uint32_t prev = seen_ == 0 ? LoadLe32(p) : last_;
    if (seen_ == 0) first = prev;
    bool up = true;
    std::size_t pos = static_cast<std::size_t>(seen_ % max.size());
    for (std::size_t i = 0; i < n; ++i, p += 4) {
      const std::uint32_t v = LoadLe32(p);
      out[i] = v;
      up &= v >= prev;
      prev = v;
      max[pos] = std::max(max[pos], v);
      if (++pos == max.size()) pos = 0;
    }
    ascending &= up;
    last_ = prev;
    seen_ += n;
  }

 private:
  std::uint64_t seen_ = 0;  // values folded so far
  std::uint32_t last_ = 0;
};

// One segment-directory row: a segmented column's identity and payload
// checksum, written in the header so corruption is attributed by name.
struct SegDirEntry {
  std::string tag;
  std::uint64_t elems = 0;
  std::uint32_t segments = 0;
  std::uint64_t checksum = 0;
};

// Reads `n` u32 elements into a segmented column chunk by chunk (spilling
// sealed segments as it goes under a budget), folding `summary` rows of
// `summary->max.size()` elements, and returns the FNV-1a checksum of the
// streamed payload for the directory check.
std::uint64_t ReadU32SegColumn(Reader& r,
                               internal::SegColumn<std::uint32_t>& column,
                               std::uint64_t n, const char* where,
                               internal::SegmentedSpaceStore& store,
                               U32Summary* summary) {
  std::uint64_t h = kFnvOffset;
  std::vector<std::uint32_t> buf(std::min<std::uint64_t>(n, kChunkRecords));
  r.Records(n, 4, &h, [where](std::size_t) { return where; },
            [&](const unsigned char* p, std::uint64_t, std::size_t k) {
              summary->Decode(p, k, buf.data());
              column.Append(buf.data(), k);
              if (store.out_of_core()) store.EnforceBudget();
            });
  return h;
}

// A resident u32 column (bucket and group tables): its count, checked
// against the bytes left, then the elements in chunks.
std::vector<std::uint32_t> ReadU32Column(Reader& r, const char* where,
                                         U32Summary* summary) {
  const std::uint64_t n = r.Count(where);
  r.RequireFits(n, 4, where);
  std::vector<std::uint32_t> column(static_cast<std::size_t>(n));
  r.Records(n, 4, nullptr, [where](std::size_t) { return where; },
            [&](const unsigned char* p, std::uint64_t first, std::size_t k) {
              summary->Decode(p, k, column.data() + first);
            });
  return column;
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

  // Wire encoders of the column element types.
  static void PutLink(unsigned char* dst,
                      const ComputationSpace::ClassLink& l) {
    StoreLe32(dst, l.parent);
    StoreLe32(dst + 4, l.event);
    StoreLe16(dst + 8, l.pos);
    StoreLe16(dst + 10, l.length);
  }
  static void PutU64(unsigned char* dst, std::size_t v) {
    StoreLe64(dst, static_cast<std::uint64_t>(v));
  }
  static void PutU32(unsigned char* dst, std::uint32_t v) { StoreLe32(dst, v); }

  static void Save(const ComputationSpace& space, std::ostream& out,
                   const FrontierMeta& frontier) {
    // [G]-tables are built lazily under the space's mutex; collect the
    // published ones under it.  The cache is ordered by mask, so identical
    // spaces serialize byte-identically regardless of build order.
    std::vector<std::pair<std::uint64_t, const internal::PartitionTable*>>
        groups;
    {
      std::lock_guard<std::mutex> lock(*space.group_mutex_);
      groups.reserve(space.group_index_.size());
      for (const auto& [mask, table] : space.group_index_)
        groups.emplace_back(mask, &table);
    }

    // Every segmented column is encoded twice — once for its directory
    // checksum, once for the payload — because the checksums precede the
    // payload in the header.  Both passes stream pinned segments and trim
    // the residency budget after each, so saving an out-of-core space never
    // exceeds it.
    internal::SegmentedSpaceStore& store = *space.store_;
    std::vector<unsigned char> buf;

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
    const auto entry = [&](const char* tag, const auto& column,
                           std::size_t wire, auto put) {
      std::uint64_t h = kFnvOffset;
      EncodeChunks(
          column, wire, put,
          [&h](const unsigned char* p, std::size_t n) { h = Fnv(h, p, n); },
          buf, store);
      const std::size_t segs =
          (column.rows() + rows_per_seg - 1) / rows_per_seg;
      dir.push_back(SegDirEntry{tag, column.size(),
                                static_cast<std::uint32_t>(segs), h});
    };
    entry("links", space.links_, kLinkBytes, PutLink);
    entry("canonh", space.canon_hash_, 8, PutU64);
    entry("canoni", space.canon_id_, 4, PutU32);
    entry("proj", space.proj_class_, 4, PutU32);
    entry("succo", space.succ_offsets_, 4, PutU32);
    entry("succc", space.succ_class_, 4, PutU32);
    entry("succe", space.succ_event_, 4, PutU32);
    info.segment_columns = dir.size();
    for (const SegDirEntry& e : dir) info.segments += e.segments;
    WriteHeader(w, info, dir);

    for (const Event& e : space.event_pool_) WriteEvent(w, e);
    const auto emit = [&w](const unsigned char* p, std::size_t n) {
      w.Bytes(p, n);
    };
    EncodeChunks(space.links_, kLinkBytes, PutLink, emit, buf, store);
    EncodeChunks(space.canon_hash_, 8, PutU64, emit, buf, store);
    EncodeChunks(space.canon_id_, 4, PutU32, emit, buf, store);
    const auto seg_column = [&](const internal::SegColumn<std::uint32_t>& c) {
      w.U64(c.size());
      EncodeChunks(c, 4, PutU32, emit, buf, store);
    };
    const auto column = [&](const std::vector<std::uint32_t>& c) {
      w.U64(c.size());
      EncodeChunks(c.data(), c.size(), 4, PutU32, emit, buf);
    };
    seg_column(space.proj_class_);
    for (int p = 0; p < space.num_processes_; ++p) {
      column(space.bucket_offsets_[static_cast<std::size_t>(p)]);
      column(space.bucket_ids_[static_cast<std::size_t>(p)]);
    }
    seg_column(space.succ_offsets_);
    seg_column(space.succ_class_);
    seg_column(space.succ_event_);
    for (const auto& [mask, table] : groups) {
      w.U64(mask);
      column(table->cls);
      column(table->offsets);
      column(table->ids);
    }
    w.Checksum();
    if (!w.ok())
      throw ModelError("SaveSpaceSnapshot: write failed (stream error)");
  }

  // Load validates every id the columns carry, so no query, Deepen or
  // Ingest over a loaded space can index outside a column.  The structural
  // checks (truncation, counts, column sizes, parent < id, canonical ids)
  // throw where the field is read, and a corrupt byte fails a checksum.
  // The id checks below are computed in the decode loops and raised after
  // the file checksum verifies: a damaged file keeps its checksum error,
  // and only a file whose checksums hold gets the named defect.
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
    // The first id defect found, raised once the file checksum holds.
    std::string defect;
    const auto note = [&defect](auto&& message) {
      if (defect.empty()) defect = "LoadSpaceSnapshot: " + message();
    };

    const std::size_t classes = info.classes;
    const auto P = static_cast<std::size_t>(info.num_processes);
    r.RequireFits(info.pool_events, kMinEventBytes, "pool_events");
    space.event_pool_.reserve(info.pool_events);
    const auto outside = [P](ProcessId p) {
      return p < 0 || static_cast<std::size_t>(p) >= P;
    };
    for (std::uint64_t i = 0; i < info.pool_events; ++i) {
      Event e = ReadEvent(r);
      if (outside(e.process) || (!e.IsInternal() && outside(e.peer)))
        note([&] {
          return "event " + std::to_string(i) + " names process " +
                 std::to_string(outside(e.process) ? e.process : e.peer) +
                 " outside the system (" + std::to_string(P) + " processes)";
        });
      space.event_pool_.push_back(std::move(e));
    }
    const std::size_t pool = space.event_pool_.size();

    // Links: every class is its parent plus one event, spliced at a
    // position inside the parent's sequence.  Class lengths are kept aside
    // while the column streams, so the check never faults a spilled
    // segment back in.
    std::uint64_t fold = kFnvOffset;
    {
      std::vector<std::uint16_t> lengths;
      std::vector<ComputationSpace::ClassLink> buf(
          std::min<std::size_t>(classes, kChunkRecords));
      const auto field = [](std::size_t offset) {
        return offset < 4   ? "link parent"
               : offset < 8 ? "link event"
               : offset < 10 ? "link pos"
                             : "link length";
      };
      r.Records(classes, kLinkBytes, &fold, field,
                [&](const unsigned char* p, std::uint64_t first,
                    std::size_t n) {
                  for (std::size_t k = 0; k < n; ++k, p += kLinkBytes) {
                    const std::size_t i = first + k;
                    ComputationSpace::ClassLink& link = buf[k];
                    link.parent = LoadLe32(p);
                    link.event = LoadLe32(p + 4);
                    link.pos = LoadLe16(p + 8);
                    link.length = LoadLe16(p + 10);
                    if (i > 0 && (link.parent >= i || link.event >= pool))
                      throw ModelError("LoadSpaceSnapshot: class " +
                                       std::to_string(i) +
                                       " references out-of-range parent or "
                                       "event");
                    const int want = i > 0 ? lengths[link.parent] + 1 : 0;
                    if (i == 0 && link.length != 0)
                      note([&] {
                        return "root class has length " +
                               std::to_string(link.length) + " (must be 0)";
                      });
                    if (i > 0 && (link.length != want || link.pos >= want))
                      note([&] {
                        return "class " + std::to_string(i) + " (length " +
                               std::to_string(link.length) +
                               ", splice position " +
                               std::to_string(link.pos) +
                               ") does not extend its parent class " +
                               std::to_string(link.parent) + " (length " +
                               std::to_string(want - 1) + ") by one event";
                      });
                    lengths.push_back(link.length);
                  }
                  space.links_.Append(buf.data(), n);
                  trim();
                });
      // A parked frontier is the level at the built depth.
      if (info.frontier == 2 &&
          lengths[info.frontier_begin] != info.built_depth)
        note([&] {
          return "capped frontier begins at class " +
                 std::to_string(info.frontier_begin) + " of length " +
                 std::to_string(lengths[info.frontier_begin]) +
                 ", not at the built depth " + std::to_string(info.built_depth);
        });
    }
    check_column(0, "links", classes, fold);
    trim();

    fold = kFnvOffset;
    {
      std::vector<std::size_t> buf(
          std::min<std::size_t>(classes, kChunkRecords));
      r.Records(classes, 8, &fold, [](std::size_t) { return "canon hash"; },
                [&](const unsigned char* p, std::uint64_t, std::size_t n) {
                  for (std::size_t k = 0; k < n; ++k, p += 8)
                    buf[k] = static_cast<std::size_t>(LoadLe64(p));
                  space.canon_hash_.Append(buf.data(), n);
                  trim();
                });
    }
    check_column(1, "canonh", classes, fold);
    trim();
    fold = kFnvOffset;
    {
      std::vector<std::uint32_t> buf(
          std::min<std::size_t>(classes, kChunkRecords));
      r.Records(classes, 4, &fold, [](std::size_t) { return "canon id"; },
                [&](const unsigned char* p, std::uint64_t, std::size_t n) {
                  for (std::size_t k = 0; k < n; ++k, p += 4) {
                    buf[k] = LoadLe32(p);
                    if (buf[k] >= classes)
                      throw ModelError(
                          "LoadSpaceSnapshot: canonical index id out of "
                          "range");
                  }
                  space.canon_id_.Append(buf.data(), n);
                  trim();
                });
    }
    check_column(2, "canoni", classes, fold);
    trim();

    const std::uint64_t proj_elems = r.Count("projection classes");
    if (proj_elems !=
        classes * static_cast<std::uint64_t>(info.num_processes))
      throw ModelError("LoadSpaceSnapshot: projection column size mismatch");
    U32Summary proj(P);
    check_column(3, "proj", proj_elems,
                 ReadU32SegColumn(r, space.proj_class_, proj_elems,
                                  "projection classes", store, &proj));

    // A CSR offsets column starts at 0 and never decreases; its last entry
    // is checked against the payload size where the column is read.
    const auto csr = [](const U32Summary& s) {
      return s.first == 0 && s.ascending;
    };
    space.bucket_offsets_.resize(P);
    space.bucket_ids_.resize(P);
    for (std::size_t p = 0; p < P; ++p) {
      auto& offsets = space.bucket_offsets_[p];
      auto& ids = space.bucket_ids_[p];
      U32Summary offsets_sum, ids_sum;
      offsets = ReadU32Column(r, "bucket offsets", &offsets_sum);
      ids = ReadU32Column(r, "bucket ids", &ids_sum);
      if (offsets.empty() || offsets.back() != ids.size() ||
          ids.size() != classes)
        throw ModelError(
            "LoadSpaceSnapshot: bucket CSR columns inconsistent for process " +
            std::to_string(p));
      if (!csr(offsets_sum))
        note([&] {
          return "bucket offsets of process " + std::to_string(p) +
                 " do not start at 0 and ascend";
        });
      if (classes > 0 && ids_sum.max[0] >= classes)
        note([&] {
          return "bucket of process " + std::to_string(p) + " holds class " +
                 std::to_string(ids_sum.max[0]) + " of " +
                 std::to_string(classes);
        });
      if (classes > 0 && proj.max[p] >= offsets.size() - 1)
        note([&] {
          return "projection class " + std::to_string(proj.max[p]) +
                 " of process " + std::to_string(p) + " is out of range (" +
                 std::to_string(offsets.size() - 1) + " classes)";
        });
    }

    U32Summary succo, succc, succe;
    const std::uint64_t succo_elems = r.Count("successor offsets");
    check_column(4, "succo", succo_elems,
                 ReadU32SegColumn(r, space.succ_offsets_, succo_elems,
                                  "successor offsets", store, &succo));
    const std::uint64_t succc_elems = r.Count("successor classes");
    check_column(5, "succc", succc_elems,
                 ReadU32SegColumn(r, space.succ_class_, succc_elems,
                                  "successor classes", store, &succc));
    const std::uint64_t succe_elems = r.Count("successor events");
    check_column(6, "succe", succe_elems,
                 ReadU32SegColumn(r, space.succ_event_, succe_elems,
                                  "successor events", store, &succe));
    if (space.succ_offsets_.size() != classes + (classes ? 1 : 0) ||
        (classes && space.succ_offsets_.back() != space.succ_class_.size()) ||
        space.succ_class_.size() != space.succ_event_.size())
      throw ModelError("LoadSpaceSnapshot: successor CSR columns "
                       "inconsistent");
    if (!csr(succo))
      note([] {
        return std::string("successor offsets do not start at 0 and ascend");
      });
    if (succc_elems > 0 && succc.max[0] >= classes)
      note([&] {
        return "successor class " + std::to_string(succc.max[0]) +
               " is out of range (" + std::to_string(classes) + " classes)";
      });
    if (succe_elems > 0 && succe.max[0] >= pool)
      note([&] {
        return "successor event " + std::to_string(succe.max[0]) +
               " is out of range (" + std::to_string(pool) + " pool events)";
      });
    trim();

    std::uint64_t last_mask = 0;
    for (std::uint64_t i = 0; i < info.group_indexes; ++i) {
      const std::uint64_t mask = r.U64("group mask");
      if (i > 0 && mask <= last_mask)
        throw ModelError("LoadSpaceSnapshot: group indexes out of order");
      last_mask = mask;
      internal::PartitionTable table;
      U32Summary cls_sum, offsets_sum, ids_sum;
      table.cls = ReadU32Column(r, "group classes", &cls_sum);
      table.offsets = ReadU32Column(r, "group offsets", &offsets_sum);
      table.ids = ReadU32Column(r, "group ids", &ids_sum);
      if (table.cls.size() != classes || table.offsets.empty() ||
          table.offsets.back() != table.ids.size() ||
          table.ids.size() != classes)
        throw ModelError("LoadSpaceSnapshot: group index columns "
                         "inconsistent");
      const std::size_t group_classes = table.offsets.size() - 1;
      if (mask == 0 || (mask & ~space.AllProcesses().bits()) != 0)
        note([&] {
          return "group mask " + std::to_string(mask) +
                 " names no process or one outside the system";
        });
      if (!csr(offsets_sum))
        note([&] {
          return "offsets of group " + std::to_string(mask) +
                 " do not start at 0 and ascend";
        });
      if (classes > 0 && ids_sum.max[0] >= classes)
        note([&] {
          return "a bucket of group " + std::to_string(mask) +
                 " holds class " + std::to_string(ids_sum.max[0]) + " of " +
                 std::to_string(classes);
        });
      if (classes > 0 && cls_sum.max[0] >= group_classes)
        note([&] {
          return "group " + std::to_string(mask) + " class " +
                 std::to_string(cls_sum.max[0]) + " is out of range (" +
                 std::to_string(group_classes) + " classes)";
        });
      space.group_index_.emplace(mask, std::move(table));
    }

    r.VerifyChecksum();
    if (!defect.empty()) throw ModelError(defect);

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
