#include "core/space.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/parallel.h"
#include "sim/trace.h"  // header-only use (inline entries()); no link dep

namespace hpl {

namespace {

// ClassLink stores pos/length in 16 bits.
constexpr int kMaxStoredDepth = 65535;

// "Not interned yet" sentinel for event-pool lookups.
constexpr std::uint32_t kNoEventId = UINT32_MAX;

// Runs fn(i) for i in [0, count): on the pool when one is given, inline (the
// exact replay order of the pooled phases) otherwise.
void RunJob(internal::WorkerPool* pool, std::size_t count,
            const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->Run(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

// Binary search over a segmented column (the canonical-hash index).  The
// column auto-faults segments on access, so a probe against a spilled
// segment costs one fault-in; probes re-resolve the base pointer every
// access, so they stay correct across a concurrent residency trim.
template <typename T>
std::size_t LowerBound(const internal::SegColumn<T>& col, const T& v) {
  std::size_t lo = 0;
  std::size_t hi = col.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (col[mid] < v)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

template <typename T>
std::size_t UpperBound(const internal::SegColumn<T>& col, const T& v) {
  std::size_t lo = 0;
  std::size_t hi = col.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (col[mid] <= v)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

// Mints dense [G]-class ids for classes visited in ascending id order.  A
// child whose extending event lies outside G inherits its parent's class
// (its member projections are the parent's); otherwise the class is
// hash-consed by the child's tuple of member [p]-class ids.  The tuple is
// the only sound key for |G| >= 2: the same [G]-tuple is reachable through
// parents that extend different member processes, so any
// (parent-class, event)-shaped key would mint duplicate ids (see space.h).
// Ids come out in first-occurrence order, so replaying the same links always
// mints the same table.  ComputationSpace::ReplayGroupClasses is its only
// user.
//
// The hash-cons table is flat open addressing: a slot holds class + 1 (0 is
// empty), each class keeps its tuple hash, and a probe hit is confirmed by
// comparing member tuples against the class's first member.  A new class
// costs two array appends — no map node, no per-hash vector — and a rehash
// reads only the stored hashes, never the projection column.
class GroupClassMinter {
 public:
  // `n`: the number of ids the replay will visit.
  GroupClassMinter(ProcessSet g, std::size_t n) : g_(g) { cls_.reserve(n); }

  // Visit class `id` (ids strictly ascending from 0, the root).  `proj` is
  // the space's proj_class_ column, already filled through `id`'s row.
  void Classify(std::size_t id, std::size_t parent, ProcessId extend_process,
                const internal::SegColumn<std::uint32_t>& proj) {
    if (id == 0) {
      // The root: every projection is empty.  Its tuple can never collide
      // with a minted one (minting appends an event on a member process),
      // so it is not registered in the hash table.
      rep_.push_back(0);
      hash_.push_back(0);
      cls_.push_back(0);
      return;
    }
    if (!g_.Contains(extend_process)) {
      cls_.push_back(cls_[parent]);
      return;
    }
    const std::uint32_t* row = proj.Row(id);
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a over the tuple
    g_.ForEach([&](ProcessId p) {
      h ^= row[static_cast<std::size_t>(p)];
      h *= 1099511628211ull;
    });
    if (2 * rep_.size() >= slots_.size()) Grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = SlotOf(h);
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      const std::uint32_t c = slots_[i] - 1;
      if (hash_[c] == h && TupleEqual(row, proj.Row(rep_[c]))) {
        cls_.push_back(c);
        return;
      }
    }
    const auto c = static_cast<std::uint32_t>(rep_.size());
    slots_[i] = c + 1;
    rep_.push_back(static_cast<std::uint32_t>(id));
    hash_.push_back(h);
    cls_.push_back(c);
  }

  std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(rep_.size());
  }
  std::vector<std::uint32_t> TakeClasses() { return std::move(cls_); }

 private:
  // Fibonacci hashing: the multiply folds every bit of the tuple hash into
  // the top bits the shift keeps.
  std::size_t SlotOf(std::uint64_t h) const {
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // Doubles the table (1024 slots at first) and re-inserts every class but
  // the unregistered root; keeps the load factor at most 1/2.
  void Grow() {
    const std::size_t size = slots_.empty() ? 1024 : 2 * slots_.size();
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
    slots_.assign(size, 0);
    for (std::uint32_t c = 1; c < rep_.size(); ++c) {
      std::size_t i = SlotOf(hash_[c]);
      while (slots_[i] != 0) i = (i + 1) & (size - 1);
      slots_[i] = c + 1;
    }
  }

  bool TupleEqual(const std::uint32_t* ra, const std::uint32_t* rb) const {
    bool equal = true;
    g_.ForEach([&](ProcessId p) {
      if (equal && ra[static_cast<std::size_t>(p)] !=
                       rb[static_cast<std::size_t>(p)])
        equal = false;
    });
    return equal;
  }

  ProcessSet g_;
  std::vector<std::uint32_t> cls_;   // per visited id: its [G]-class
  std::vector<std::uint32_t> rep_;   // per [G]-class: first member id
  std::vector<std::uint64_t> hash_;  // per [G]-class: its tuple hash
  std::vector<std::uint32_t> slots_;  // open addressing: class + 1, 0 empty
  unsigned shift_ = 64;
};

}  // namespace

ComputationSpace ComputationSpace::Enumerate(const System& system,
                                             const EnumerationLimits& limits) {
  SpaceBuilder builder;
  builder.Build(system, limits);
  return std::move(builder).Take();
}

void ComputationSpace::InitColumns(const SegmentOptions& options) {
  if (options.segment_shift < 2 || options.segment_shift > 26)
    throw ModelError(
        "EnumerationLimits::segments: segment_shift must be in [2, 26], "
        "got " +
        std::to_string(options.segment_shift));
  store_->Configure(options);
  const unsigned sh = options.segment_shift;
  auto* s = store_.get();
  links_.Bind(s, "links", sh);
  canon_hash_.Bind(s, "canonh", sh);
  canon_id_.Bind(s, "canoni", sh);
  proj_class_.Bind(s, "proj", sh, static_cast<std::size_t>(num_processes_));
  succ_offsets_.Bind(s, "succo", sh);
  succ_class_.Bind(s, "succc", sh);
  succ_event_.Bind(s, "succe", sh);
}

// Transient construction state retained between Build/Deepen/Ingest calls:
// the event interner, the incremental projection-class maps, and the BFS
// frontier arena — everything the one-shot BFS used to discard when it
// returned.  All of it is reconstructible from the sealed columns by an
// id-order replay, which is how a loaded hpl-space-v3 snapshot resumes
// (AdoptSpace).
struct SpaceBuilder::State {
  // Event interner: pool-id lists per event hash.  Read-only while a
  // level's parallel phases are in flight; misses are interned between
  // phases, sequentially in discovery order, so pool ids are deterministic
  // whatever the thread count.
  std::unordered_map<std::size_t, std::vector<std::uint32_t>> event_index;
  std::vector<std::size_t> event_hash;  // per pool id: HashEvent

  // Incremental projection-class minting: a one-event extension only
  // changes the projection on the event's own process, where it appends the
  // event — so a child [p]-class is the parent's for p != e.process, and
  // the class minted for (parent [p]-class, event id) for p == e.process.
  // Class 0 is the empty projection on every process.
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> proj_extend;
  std::vector<std::uint32_t> proj_count;

  // The BFS frontier: classes [level_begin, level_begin + level_count),
  // all of length `depth`, with their interned-id sequences materialized in
  // the flat level arena (level_count rows of `depth` ids).  The arena is
  // the only place sequences exist in full; it survives a depth-cap stop so
  // Deepen can resume, and retires level by level otherwise.
  std::size_t level_begin = 0;
  std::size_t level_count = 0;
  std::vector<std::uint32_t> level_seq;
  int depth = 0;

  // Canonical-index entries [0, finalized_canon) are already in sorted
  // (hash, id) form; the suffix past it is in id-append order until the
  // next Finalize merges it in.
  std::size_t finalized_canon = 0;

  std::uint32_t LookupEvent(const ComputationSpace& sp, const Event& e,
                            std::size_t h) const {
    auto it = event_index.find(h);
    if (it == event_index.end()) return kNoEventId;
    for (std::uint32_t id : it->second)
      if (sp.event_pool_[id] == e) return id;
    return kNoEventId;
  }

  std::uint32_t InternEvent(ComputationSpace& sp, Event e, std::size_t h) {
    const auto id = static_cast<std::uint32_t>(sp.event_pool_.size());
    event_index[h].push_back(id);
    event_hash.push_back(h);
    sp.event_pool_.push_back(std::move(e));
    return id;
  }
};

SpaceBuilder::SpaceBuilder() = default;
SpaceBuilder::~SpaceBuilder() = default;
SpaceBuilder::SpaceBuilder(SpaceBuilder&&) noexcept = default;
SpaceBuilder& SpaceBuilder::operator=(SpaceBuilder&&) noexcept = default;

void SpaceBuilder::RequireSpace(const char* what) const {
  if (space_ == nullptr)
    throw ModelError(std::string(what) +
                     ": builder holds no space (call Build first)");
}

std::size_t SpaceBuilder::FrontierBegin() const {
  return state_ != nullptr ? state_->level_begin : 0;
}

const ComputationSpace& SpaceBuilder::space() const {
  RequireSpace("SpaceBuilder::space");
  return *space_;
}

ComputationSpace& SpaceBuilder::space() {
  RequireSpace("SpaceBuilder::space");
  return *space_;
}

int SpaceBuilder::built_depth() const {
  RequireSpace("SpaceBuilder::built_depth");
  return space_->built_depth_;
}

ComputationSpace SpaceBuilder::Take() && {
  RequireSpace("SpaceBuilder::Take");
  ComputationSpace out = std::move(*space_);
  space_.reset();
  state_.reset();
  system_ = nullptr;
  sealed_ = complete_ = capped_ = ingested_ = false;
  return out;
}

void SpaceBuilder::Build(const System& system,
                         const EnumerationLimits& limits) {
  // Projection rows are copied through kMaxProcesses-wide stack arrays, so
  // a System outside [1, kMaxProcesses] must be refused before any row is.
  const int num_processes = system.NumProcesses();
  if (num_processes < 1 || num_processes > kMaxProcesses)
    throw ModelError("ComputationSpace::Enumerate: system '" + system.Name() +
                     "' has " + std::to_string(num_processes) +
                     " processes; the space supports 1 to " +
                     std::to_string(kMaxProcesses));
  if (limits.max_depth > kMaxStoredDepth)
    throw ModelError(
        "ComputationSpace::Enumerate: max_depth exceeds the columnar "
        "store's 16-bit depth links (" +
        std::to_string(kMaxStoredDepth) + ")");
  system_ = &system;
  limits_ = limits;
  sealed_ = complete_ = capped_ = ingested_ = false;
  space_.reset(new ComputationSpace());
  state_ = std::make_unique<State>();
  ComputationSpace& space = *space_;
  State& st = *state_;
  space.num_processes_ = num_processes;
  space.system_name_ = system.Name();
  space.canonicalize_ = limits.canonicalize;
  space.InitColumns(limits.segments);
  const int P = space.num_processes_;

  st.proj_extend.resize(static_cast<std::size_t>(P));
  st.proj_count.assign(static_cast<std::size_t>(P), 1);

  // Root: the empty computation.
  space.links_.push_back(ComputationSpace::ClassLink{});
  {
    std::array<std::uint32_t, kMaxProcesses> zero_row{};
    space.proj_class_.Append(zero_row.data(), static_cast<std::size_t>(P));
  }
  space.canon_hash_.push_back(Computation().SequenceHash());
  space.canon_id_.push_back(0);
  space.succ_offsets_.push_back(0);
  st.level_begin = 0;
  st.level_count = 1;
  st.depth = 0;

  const int threads = internal::ResolveNumThreads(limits.num_threads);
  if (threads == 1) {
    RunLevels(limits.max_depth, nullptr);
    Finalize(nullptr);
  } else {
    internal::WorkerPool pool(threads);
    RunLevels(limits.max_depth, &pool);
    Finalize(&pool);
  }
}

std::size_t SpaceBuilder::Deepen(int extra_levels) {
  RequireSpace("SpaceBuilder::Deepen");
  if (extra_levels <= 0)
    throw ModelError("SpaceBuilder::Deepen: extra_levels must be positive");
  if (sealed_)
    throw ModelError(
        "SpaceBuilder::Deepen: the space carries no frontier (loaded from "
        "a sealed snapshot); re-enumerate or save with builder state");
  if (ingested_)
    throw ModelError(
        "SpaceBuilder::Deepen: Ingest minted classes out of BFS level "
        "order; this builder can only keep ingesting");
  if (complete_) return 0;
  ComputationSpace& space = *space_;
  State& st = *state_;
  if (st.depth > kMaxStoredDepth - extra_levels)
    throw ModelError(
        "SpaceBuilder::Deepen: target depth exceeds the columnar store's "
        "16-bit depth links (" +
        std::to_string(kMaxStoredDepth) + ")");
  const int target = st.depth + extra_levels;

  // Un-finalize the parked frontier: drop the empty successor rows recorded
  // for it and the truncation verdict — the resumed run re-derives both.
  space.succ_offsets_.Truncate(st.level_begin + 1);
  space.truncated_ = false;
  capped_ = false;

  const std::size_t before = space.size();
  const int threads = internal::ResolveNumThreads(limits_.num_threads);
  if (threads == 1) {
    RunLevels(target, nullptr);
    Finalize(nullptr);
  } else {
    internal::WorkerPool pool(threads);
    RunLevels(target, &pool);
    Finalize(&pool);
  }
  return space.size() - before;
}

void SpaceBuilder::RunLevels(int target_depth, internal::WorkerPool* pool) {
  ComputationSpace& space = *space_;
  State& st = *state_;
  const System& system = *system_;
  const std::size_t num_shards =
      pool != nullptr ? static_cast<std::size_t>(pool->size()) : 1;
  const int P = space.num_processes_;

  struct Candidate {
    Event event;  // moved out once interned
    std::uint32_t event_id = kNoEventId;
    std::uint16_t pos = 0;
    std::size_t key = 0;  // sequence hash of the extension
    std::uint32_t shard = 0;
    std::uint32_t unique = 0;  // index into its shard's unique list
    bool first = false;        // first occurrence of its class this level
  };

  while (st.level_count > 0) {
    const std::size_t level_begin = st.level_begin;
    const std::size_t level_count = st.level_count;
    const int depth = st.depth;
    const auto row_of = [&](std::size_t i) {
      return st.level_seq.data() + i * static_cast<std::size_t>(depth);
    };

    // Phase A (parallel): materialize each member from the arena, ask the
    // system for enabled events, and record candidate (event, splice-pos)
    // pairs, resolving event-pool ids where the event is already interned.
    // Reads only the arena and the (resident) event pool — never the
    // segmented columns, so it coexists with segments spilled behind the
    // frontier.
    std::vector<std::vector<Candidate>> expanded(level_count);
    std::vector<char> extendable(level_count, 0);
    const bool at_depth_cap = depth >= target_depth;
    RunJob(pool, level_count, [&](std::size_t i) {
      std::vector<Event> events;
      events.reserve(static_cast<std::size_t>(depth));
      const std::uint32_t* row = row_of(i);
      for (int k = 0; k < depth; ++k)
        events.push_back(space.event_pool_[row[k]]);
      const Computation x = Computation::TrustedFromEvents(std::move(events));
      std::vector<Event> enabled = system.EnabledEvents(x);
      if (enabled.empty()) return;
      if (at_depth_cap) {
        extendable[i] = 1;
        return;
      }
      auto& out = expanded[i];
      out.reserve(enabled.size());
      for (Event& e : enabled) {
        std::string why;
        if (!CanExtend(x, e, &why))
          throw ModelError("Enumerate: system '" + system.Name() +
                           "' produced an illegal event " + e.ToString() +
                           ": " + why);
        Candidate c;
        c.pos = static_cast<std::uint16_t>(
            space.canonicalize_ ? x.CanonicalInsertPos(e)
                                : static_cast<std::size_t>(depth));
        c.event_id = st.LookupEvent(space, e, HashEvent(e));
        c.event = std::move(e);
        out.push_back(std::move(c));
      }
    });

    if (std::any_of(extendable.begin(), extendable.end(),
                    [](char f) { return f != 0; })) {
      if (!limits_.allow_truncation)
        throw ModelError(
            "ComputationSpace::Enumerate: system '" + system.Name() +
            "' still extendable at max_depth=" +
            std::to_string(target_depth) +
            "; raise the limit or pass allow_truncation");
      space.truncated_ = true;
    }

    if (at_depth_cap) {
      // Park the frontier: record the empty successor rows a one-shot
      // enumeration would have emitted for this level (phases B–E see no
      // candidates at the cap), keep the arena, and hand control back so
      // Deepen can resume from here.  Deepen rewinds these rows first.
      for (std::size_t i = 0; i < level_count; ++i)
        space.succ_offsets_.push_back(
            static_cast<std::uint32_t>(space.succ_class_.size()));
      capped_ = true;
      return;
    }

    // Phase B (sequential): intern the events phase A missed.  New alphabet
    // entries appear in candidate order, so ids are thread-count invariant.
    for (auto& out : expanded) {
      for (Candidate& c : out) {
        if (c.event_id != kNoEventId) continue;
        const std::size_t h = HashEvent(c.event);
        c.event_id = st.LookupEvent(space, c.event, h);
        if (c.event_id != kNoEventId) continue;
        c.event_id = st.InternEvent(space, std::move(c.event), h);
      }
    }

    // Phase C (parallel): splice each candidate's sequence into a flat
    // per-member arena (rows of depth+1 ids) and fold its class key from
    // the precomputed per-event hashes.
    const std::size_t ext_len = static_cast<std::size_t>(depth) + 1;
    std::vector<std::vector<std::uint32_t>> ext_seqs(level_count);
    RunJob(pool, level_count, [&](std::size_t i) {
      auto& out = expanded[i];
      if (out.empty()) return;
      auto& seqs = ext_seqs[i];
      seqs.resize(out.size() * ext_len);
      const std::uint32_t* row = row_of(i);
      for (std::size_t j = 0; j < out.size(); ++j) {
        Candidate& c = out[j];
        std::uint32_t* dst = seqs.data() + j * ext_len;
        std::copy(row, row + c.pos, dst);
        dst[c.pos] = c.event_id;
        std::copy(row + c.pos, row + depth, dst + c.pos + 1);
        SequenceHashFold fold(ext_len);
        for (std::size_t k = 0; k < ext_len; ++k)
          fold.Add(st.event_hash[dst[k]]);
        c.key = fold.hash();
        c.shard = static_cast<std::uint32_t>(c.key % num_shards);
      }
    });

    // Phase D: dedup through per-shard hash maps.  All members of a BFS
    // level have the same length, so extensions can only collide with other
    // extensions of the same level — dedup is entirely intra-level.  A
    // sequential O(candidates) routing pass hands each shard the
    // (member, candidate) pairs it owns in global order, so "first
    // occurrence" within a shard coincides with first occurrence in the
    // sequential discovery order.  Equal sequences have equal interned-id
    // rows (interning is exact), so rows compare with std::equal.
    struct Shard {
      std::unordered_map<std::size_t, std::vector<std::uint32_t>> by_key;
      std::vector<const std::uint32_t*> uniques;  // arena rows
    };
    std::vector<Shard> shards(num_shards);
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> routed(
        num_shards);
    std::size_t total_candidates = 0;
    for (const auto& out : expanded) total_candidates += out.size();
    for (auto& r : routed)
      r.reserve(total_candidates / num_shards + num_shards);
    for (std::size_t i = 0; i < expanded.size(); ++i)
      for (std::size_t j = 0; j < expanded[i].size(); ++j)
        routed[expanded[i][j].shard].emplace_back(i, j);
    RunJob(pool, num_shards, [&](std::size_t s) {
      Shard& shard = shards[s];
      shard.by_key.reserve(routed[s].size());
      shard.uniques.reserve(routed[s].size());
      for (const auto& [i, j] : routed[s]) {
        Candidate& c = expanded[i][j];
        const std::uint32_t* seq = ext_seqs[i].data() + j * ext_len;
        auto& with_key = shard.by_key[c.key];
        bool matched = false;
        for (std::uint32_t u : with_key) {
          if (std::equal(seq, seq + ext_len, shard.uniques[u])) {
            c.unique = u;
            matched = true;
            break;
          }
        }
        if (!matched) {
          c.unique = static_cast<std::uint32_t>(shard.uniques.size());
          c.first = true;
          with_key.push_back(c.unique);
          shard.uniques.push_back(seq);
        }
      }
    });

    // Phase E (sequential): merge shards deterministically by walking the
    // candidates in discovery order — assign class ids, append links and
    // projection rows, fill the successor CSR for every parent of this
    // level, and build the next level's arena.  The only phase that touches
    // the segmented columns: appends go to the open tails, and the one
    // random read per child (its parent's projection row) targets the
    // previous level — the hottest segments, resident even under a tight
    // budget.
    std::vector<std::vector<std::uint32_t>> shard_ids(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s)
      shard_ids[s].resize(shards[s].uniques.size());
    std::vector<std::uint32_t> next_seq;
    std::size_t next_count = 0;
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      const std::size_t parent = level_begin + i;
      const std::size_t succ_begin = space.succ_class_.size();
      for (Candidate& c : expanded[i]) {
        std::uint32_t id;
        if (c.first) {
          if (space.links_.size() >= limits_.max_classes)
            throw ModelError("Enumerate: class budget exhausted for system '" +
                             system.Name() + "'");
          id = static_cast<std::uint32_t>(space.links_.size());
          ComputationSpace::ClassLink link;
          link.parent = static_cast<std::uint32_t>(parent);
          link.event = c.event_id;
          link.pos = c.pos;
          link.length = static_cast<std::uint16_t>(ext_len);
          space.links_.push_back(link);
          space.canon_hash_.push_back(c.key);
          space.canon_id_.push_back(id);
          // Projection row: inherit the parent's classes, then extend on
          // the event's own process.  Copied to the stack before the
          // append — Append can seal (and shrink-reallocate) the tail
          // segment the parent row lives in.
          std::array<std::uint32_t, kMaxProcesses> row;
          {
            const std::uint32_t* parent_row = space.proj_class_.Row(parent);
            std::copy(parent_row, parent_row + P, row.begin());
          }
          const auto ep = static_cast<std::size_t>(
              space.event_pool_[c.event_id].process);
          const std::uint64_t key =
              (static_cast<std::uint64_t>(row[ep]) << 32) | c.event_id;
          auto [it, minted] =
              st.proj_extend[ep].try_emplace(key, st.proj_count[ep]);
          if (minted) ++st.proj_count[ep];
          row[ep] = it->second;
          space.proj_class_.Append(row.data(), static_cast<std::size_t>(P));
          // Next level arena row.
          const std::uint32_t* seq =
              ext_seqs[i].data() +
              (static_cast<std::size_t>(&c - expanded[i].data())) * ext_len;
          next_seq.insert(next_seq.end(), seq, seq + ext_len);
          ++next_count;
          shard_ids[c.shard][c.unique] = id;
        } else {
          id = shard_ids[c.shard][c.unique];
        }
        bool seen = false;
        for (std::size_t k = succ_begin; k < space.succ_class_.size(); ++k) {
          if (space.succ_class_[k] == id) {
            seen = true;
            break;
          }
        }
        if (!seen) {
          space.succ_class_.push_back(id);
          space.succ_event_.push_back(c.event_id);
        }
      }
      space.succ_offsets_.push_back(
          static_cast<std::uint32_t>(space.succ_class_.size()));
    }

    st.level_begin += level_count;
    st.level_count = next_count;
    st.level_seq = std::move(next_seq);
    ++st.depth;

    // Quiescent point between levels: no phase holds column pointers here,
    // so cold segments (everything behind the previous level) can spill.
    if (space.store_->out_of_core()) space.store_->EnforceBudget();
  }

  // The BFS drained: every computation of the system is in the space, so
  // there is nothing left to deepen into.
  complete_ = true;
  capped_ = false;
}

void SpaceBuilder::Finalize(internal::WorkerPool* pool) {
  ComputationSpace& space = *space_;
  State& st = *state_;
  const int P = space.num_processes_;
  const std::size_t n = space.links_.size();

  // Merge the canonical-index suffix appended since the last Finalize into
  // the sorted (hash, id) columns.  Suffix entries were appended in id
  // order, so a stable sort by hash keeps ids ascending within equal
  // hashes; and because every suffix id exceeds every prefix id, merging
  // with ties taken from the prefix reproduces exactly what one stable
  // sort over the whole column would have produced.  The merge streams:
  // the prefix is read in order through the segmented columns (faulting
  // spilled segments one at a time), the output goes to fresh columns
  // whose sealed segments are spillable immediately, and the budget is
  // re-enforced every output segment — only the suffix (the newly minted
  // levels) is held flat in memory.
  if (st.finalized_canon < n) {
    const std::size_t mid = st.finalized_canon;
    std::vector<std::pair<std::size_t, std::uint32_t>> suffix(n - mid);
    for (std::size_t i = 0; i < suffix.size(); ++i)
      suffix[i] = {space.canon_hash_[mid + i], space.canon_id_[mid + i]};
    std::stable_sort(suffix.begin(), suffix.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const unsigned sh = space.store_->options().segment_shift;
    internal::SegColumn<std::size_t> merged_hash;
    internal::SegColumn<std::uint32_t> merged_id;
    merged_hash.Bind(space.store_.get(), "canonh", sh);
    merged_id.Bind(space.store_.get(), "canoni", sh);
    const std::size_t trim_every = std::size_t{1} << sh;
    std::size_t since_trim = 0;
    std::size_t a = 0;  // cursor into the sorted prefix
    std::size_t b = 0;  // cursor into the sorted suffix
    for (std::size_t out = 0; out < n; ++out) {
      const bool take_prefix =
          a < mid &&
          (b >= suffix.size() || space.canon_hash_[a] <= suffix[b].first);
      if (take_prefix) {
        merged_hash.push_back(space.canon_hash_[a]);
        merged_id.push_back(space.canon_id_[a]);
        ++a;
      } else {
        merged_hash.push_back(suffix[b].first);
        merged_id.push_back(suffix[b].second);
        ++b;
      }
      if (space.store_->out_of_core() && ++since_trim == trim_every) {
        since_trim = 0;
        space.store_->EnforceBudget();
      }
    }
    // Move-assign drops the superseded columns' segments (and spill files;
    // file names are store-unique, so the replacements never collide).
    space.canon_hash_ = std::move(merged_hash);
    space.canon_id_ = std::move(merged_id);
    st.finalized_canon = n;
  }

  // NumProjectionClasses(p) is derived from the offset columns; pre-size
  // them here so BuildBuckets only has to count and fill.  The bucket CSR
  // is a pure function of proj_class_, so rebuilding from scratch after a
  // Deepen/Ingest matches a fresh enumeration bit for bit.
  space.bucket_offsets_.assign(static_cast<std::size_t>(P), {});
  space.bucket_ids_.assign(static_cast<std::size_t>(P), {});
  for (int p = 0; p < P; ++p)
    space.bucket_offsets_[static_cast<std::size_t>(p)].assign(
        st.proj_count[static_cast<std::size_t>(p)] + 1, 0);

  // Refresh every cached group index in place (evaluators hold references
  // to them); BuildBuckets fills their CSR columns alongside the singleton
  // ones.  The replay visits ids in the same order as the original build,
  // so old ids keep their [G]-classes.
  {
    std::lock_guard<std::mutex> lock(*space.group_mutex_);
    for (auto& [mask, index] : space.group_index_) {
      // Untouched by a zero-growth Finalize.
      if (index->cls_.size() != n) space.ReplayGroupClasses(*index);
    }
  }

  ComputationSpace::BuildBuckets(space, pool);

  // Sealed spaces report the depth their BFS reached; Ingest can splice in
  // longer classes without extending the exhaustive frontier, so it leaves
  // the depth alone.
  if (!ingested_)
    space.built_depth_ =
        capped_ ? st.depth
                : (space.links_.empty() ? 0 : space.links_.back().length);

  // The event pool was grown by push_back; drop the growth slack.  The
  // segmented columns carry at most one partially-reserved open tail per
  // column (sealing shrinks full segments to fit), so there is no slack to
  // drop there — just re-enforce the budget now that the space is final.
  space.event_pool_.shrink_to_fit();
  if (space.store_->out_of_core()) space.store_->EnforceBudget();
}

std::size_t SpaceBuilder::Ingest(std::span<const Event> events) {
  RequireSpace("SpaceBuilder::Ingest");
  if (sealed_)
    throw ModelError(
        "SpaceBuilder::Ingest: the space carries no frontier (loaded from "
        "a sealed snapshot); re-enumerate or save with builder state");
  ComputationSpace& space = *space_;
  State& st = *state_;
  const System& system = *system_;
  const int P = space.num_processes_;
  std::size_t minted = 0;
  bool changed = false;

  // Ingest splices into the middle of the canonical-index and successor
  // columns, so it needs them heap-resident and mutable; budgets re-apply
  // at the trim below.  links_/proj_class_ only ever append.
  space.store_->MakeAllResident();
  space.canon_hash_.UnsealAll();
  space.canon_id_.UnsealAll();
  space.succ_offsets_.UnsealAll();
  space.succ_class_.UnsealAll();
  space.succ_event_.UnsealAll();

  // Walk the observed prefix event by event, keeping `stored` — the form
  // the space files the prefix under (canonical or literal, matching the
  // enumeration mode) — and `cur`, the class id it lives at.  Every prefix
  // either already has a class (ensure the successor edge exists) or mints
  // one spliced onto the previous prefix's class.
  Computation stored;
  std::vector<Event> literal;  // literal prefix, for the non-canonical mode
  std::size_t cur = 0;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const Event& e = events[k];
    if (e.process < 0 || e.process >= P)
      throw ModelError("SpaceBuilder::Ingest: event #" + std::to_string(k) +
                       " (" + e.ToString() + ") names process " +
                       std::to_string(e.process) + " outside the system's " +
                       std::to_string(P) + " processes");
    std::string why;
    if (!CanExtend(stored, e, &why))
      throw ModelError("SpaceBuilder::Ingest: event #" + std::to_string(k) +
                       " (" + e.ToString() +
                       ") does not extend the observed prefix: " + why);
    const auto pos = static_cast<std::uint16_t>(
        space.canonicalize_ ? stored.CanonicalInsertPos(e) : stored.size());
    if (space.canonicalize_) {
      stored = stored.CanonicalExtended(e);
    } else {
      literal.push_back(e);
      stored = Computation::TrustedFromEvents(literal);
    }
    if (stored.size() > static_cast<std::size_t>(kMaxStoredDepth))
      throw ModelError(
          "SpaceBuilder::Ingest: trace prefix exceeds the columnar store's "
          "16-bit depth links (" +
          std::to_string(kMaxStoredDepth) + ")");

    // Locate the extension in the canonical index.
    const std::size_t h = stored.SequenceHash();
    std::size_t found = SIZE_MAX;
    for (std::size_t i = LowerBound(space.canon_hash_, h);
         i < space.canon_hash_.size() && space.canon_hash_[i] == h; ++i) {
      const std::uint32_t id = space.canon_id_[i];
      if (space.LengthOf(id) == stored.size() && space.At(id) == stored) {
        found = id;
        break;
      }
    }

    const std::size_t eh = HashEvent(e);
    std::uint32_t eid = st.LookupEvent(space, e, eh);
    if (found != SIZE_MAX) {
      // Known class: make sure the parent's successor row carries the edge
      // (it can be missing when `cur` was parked on a capped frontier or
      // minted by an earlier Ingest).
      bool has_edge = false;
      for (std::uint32_t j = space.succ_offsets_[cur];
           j < space.succ_offsets_[cur + 1]; ++j) {
        if (space.succ_class_[j] == found) {
          has_edge = true;
          break;
        }
      }
      if (!has_edge) {
        if (eid == kNoEventId) eid = st.InternEvent(space, e, eh);
        const std::uint32_t at = space.succ_offsets_[cur + 1];
        space.succ_class_.Insert(at, found);
        space.succ_event_.Insert(at, eid);
        for (std::size_t j = cur + 1; j < space.succ_offsets_.size(); ++j)
          ++space.succ_offsets_.Mut(j);
        changed = true;  // an edge splice still reshapes the CSR
      }
      cur = found;
      continue;
    }

    // New class: splice it onto `cur` exactly as phase E would have.
    if (space.links_.size() >= limits_.max_classes)
      throw ModelError(
          "SpaceBuilder::Ingest: class budget exhausted for system '" +
          system.Name() + "'");
    if (eid == kNoEventId) eid = st.InternEvent(space, e, eh);
    const auto id = static_cast<std::uint32_t>(space.links_.size());
    ComputationSpace::ClassLink link;
    link.parent = static_cast<std::uint32_t>(cur);
    link.event = eid;
    link.pos = pos;
    link.length = static_cast<std::uint16_t>(stored.size());
    space.links_.push_back(link);

    // Keep the canonical index sorted: all existing ids are smaller, so
    // inserting at the upper bound of the hash run preserves the
    // ids-ascending-within-equal-hash invariant.
    const std::size_t at = UpperBound(space.canon_hash_, h);
    space.canon_hash_.Insert(at, h);
    space.canon_id_.Insert(at, id);
    ++st.finalized_canon;

    // Projection row: inherit, then extend on the event's own process
    // (stack copy first — the append can reallocate the parent's segment).
    std::array<std::uint32_t, kMaxProcesses> row;
    {
      const std::uint32_t* parent_row = space.proj_class_.Row(cur);
      std::copy(parent_row, parent_row + P, row.begin());
    }
    const auto ep = static_cast<std::size_t>(e.process);
    const std::uint64_t pkey =
        (static_cast<std::uint64_t>(row[ep]) << 32) | eid;
    auto [pit, pminted] =
        st.proj_extend[ep].try_emplace(pkey, st.proj_count[ep]);
    if (pminted) ++st.proj_count[ep];
    row[ep] = pit->second;
    space.proj_class_.Append(row.data(), static_cast<std::size_t>(P));

    // Successor CSR: an empty row for the newcomer, then the parent edge.
    space.succ_offsets_.push_back(space.succ_offsets_.back());
    const std::uint32_t edge_at = space.succ_offsets_[cur + 1];
    space.succ_class_.Insert(edge_at, id);
    space.succ_event_.Insert(edge_at, eid);
    for (std::size_t j = cur + 1; j < space.succ_offsets_.size(); ++j)
      ++space.succ_offsets_.Mut(j);

    ++minted;
    changed = true;
    cur = id;
  }

  if (changed) {
    // Ingested classes break the levels-in-id-order invariant the BFS
    // frontier relies on, so the builder trades Deepen for Ingest from
    // here on.
    ingested_ = true;
    Finalize(nullptr);
  }

  // Close the edit pass: re-seal everything but the open tails so the
  // budget can spill again, then re-apply it.
  space.canon_hash_.SealAllButTail();
  space.canon_id_.SealAllButTail();
  space.succ_offsets_.SealAllButTail();
  space.succ_class_.SealAllButTail();
  space.succ_event_.SealAllButTail();
  if (space.store_->out_of_core()) space.store_->EnforceBudget();
  return minted;
}

std::size_t SpaceBuilder::Ingest(const sim::Trace& trace) {
  return Ingest(trace, trace.entries().size());
}

std::size_t SpaceBuilder::Ingest(const sim::Trace& trace,
                                 std::size_t prefix_len) {
  const auto& entries = trace.entries();
  if (prefix_len > entries.size())
    throw ModelError("SpaceBuilder::Ingest: prefix length " +
                     std::to_string(prefix_len) + " exceeds trace size " +
                     std::to_string(entries.size()));
  std::vector<Event> events;
  events.reserve(prefix_len);
  for (std::size_t i = 0; i < prefix_len; ++i)
    events.push_back(entries[i].event);
  return Ingest(std::span<const Event>(events));
}

void SpaceBuilder::AdoptSpace(std::unique_ptr<ComputationSpace> space,
                              FrontierState frontier,
                              std::size_t frontier_begin, const System* system,
                              const EnumerationLimits& limits) {
  space_ = std::move(space);
  system_ = system;
  limits_ = limits;
  ingested_ = frontier == FrontierState::kIngested;
  sealed_ = frontier == FrontierState::kSealed;
  complete_ = frontier == FrontierState::kComplete;
  capped_ = frontier == FrontierState::kCapped;
  state_ = std::make_unique<State>();
  ComputationSpace& sp = *space_;
  State& st = *state_;
  const auto P = static_cast<std::size_t>(sp.num_processes_);
  const std::size_t n = sp.links_.size();
  st.finalized_canon = n;
  if (sealed_) return;  // Deepen/Ingest both refuse; skip the O(n) replay

  // Rebuild the event interner from the pool (pool ids are the intern
  // order, so re-interning index i at id i reproduces the live maps).
  st.event_hash.reserve(sp.event_pool_.size());
  for (std::size_t i = 0; i < sp.event_pool_.size(); ++i) {
    const std::size_t h = HashEvent(sp.event_pool_[i]);
    st.event_index[h].push_back(static_cast<std::uint32_t>(i));
    st.event_hash.push_back(h);
  }

  // Replay the projection-extension maps from the links in id order: the
  // stored rows force every map value, and the mint counters resume at the
  // stored class counts.  Sequential id-order reads — segments fault in
  // one at a time and can spill again at the next trim.
  st.proj_extend.resize(P);
  st.proj_count.assign(P, 1);
  for (std::size_t p = 0; p < P; ++p)
    st.proj_count[p] = static_cast<std::uint32_t>(
        sp.NumProjectionClasses(static_cast<ProcessId>(p)));
  for (std::size_t id = 1; id < n; ++id) {
    const ComputationSpace::ClassLink link = sp.links_[id];
    const auto ep =
        static_cast<std::size_t>(sp.event_pool_[link.event].process);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(
             sp.proj_class_.Row(static_cast<std::size_t>(link.parent))[ep])
         << 32) |
        link.event;
    st.proj_extend[ep].try_emplace(key, sp.proj_class_.Row(id)[ep]);
  }

  if (capped_) {
    // Rehydrate the frontier arena from the stored splice chains.
    st.depth = sp.built_depth_;
    st.level_begin = frontier_begin;
    st.level_count = n - frontier_begin;
    st.level_seq.reserve(st.level_count * static_cast<std::size_t>(st.depth));
    for (std::size_t id = frontier_begin; id < n; ++id) {
      const std::vector<std::uint32_t> seq = sp.CanonicalIdsOf(id);
      if (seq.size() != static_cast<std::size_t>(st.depth))
        throw ModelError(
            "SpaceBuilder: corrupt frontier — class " + std::to_string(id) +
            " has length " + std::to_string(seq.size()) +
            " but the frontier depth is " + std::to_string(st.depth));
      st.level_seq.insert(st.level_seq.end(), seq.begin(), seq.end());
    }
  } else {
    st.depth = sp.built_depth_;
    st.level_begin = n;
    st.level_count = 0;
  }
  if (sp.store_->out_of_core()) sp.store_->EnforceBudget();
}

void ComputationSpace::BuildBuckets(ComputationSpace& space,
                                    internal::WorkerPool* pool) {
  const std::size_t n = space.links_.size();
  const auto P = static_cast<std::size_t>(space.num_processes_);
  const unsigned shift = space.proj_class_.shift();
  auto build_for = [&](std::size_t p) {
    // Counting sort of class ids by [p]-class: ids land ascending within
    // each bucket because they are scanned in ascending order.  Both
    // passes stream the projection column segment-at-a-time under a pin —
    // concurrent build tasks each pin their current segment, so the
    // per-segment budget trims can never evict a row another task is
    // reading (only cost it a re-fault later).
    auto& offsets = space.bucket_offsets_[p];
    auto& ids = space.bucket_ids_[p];
    const std::size_t num_segs = space.proj_class_.num_segments();
    for (std::size_t s = 0; s < num_segs; ++s) {
      internal::SegmentPin pin;
      const std::uint32_t* base = space.proj_class_.PinSegment(s, &pin);
      const std::size_t row0 = s << shift;
      const std::size_t row1 =
          std::min(n, row0 + (std::size_t{1} << shift));
      for (std::size_t row = row0; row < row1; ++row)
        ++offsets[base[(row - row0) * P + p] + 1];
      pin.Release();
      if (space.store_->out_of_core()) space.store_->EnforceBudget();
    }
    for (std::size_t cls = 1; cls < offsets.size(); ++cls)
      offsets[cls] += offsets[cls - 1];
    ids.resize(n);
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t s = 0; s < num_segs; ++s) {
      internal::SegmentPin pin;
      const std::uint32_t* base = space.proj_class_.PinSegment(s, &pin);
      const std::size_t row0 = s << shift;
      const std::size_t row1 =
          std::min(n, row0 + (std::size_t{1} << shift));
      for (std::size_t row = row0; row < row1; ++row)
        ids[cursor[base[(row - row0) * P + p]]++] =
            static_cast<std::uint32_t>(row);
      pin.Release();
      if (space.store_->out_of_core()) space.store_->EnforceBudget();
    }
  };
  // Cached group indexes still need their CSR columns; the sorts are
  // independent of the per-process ones, so they join the task list.
  std::vector<GroupIndex*> group_tasks;
  for (auto& [mask, index] : space.group_index_)
    group_tasks.push_back(index.get());
  auto task = [&](std::size_t t) {
    if (t < P) {
      build_for(t);
    } else {
      GroupIndex& index = *group_tasks[t - P];
      internal::BucketByClass(index.cls_, index.NumClasses(), index.offsets_,
                              index.ids_);
    }
  };
  const std::size_t num_tasks = P + group_tasks.size();
  if (pool != nullptr && num_tasks > 1) {
    // Tasks are independent; each runs the exact sequential code, so
    // results do not depend on the pool.
    pool->Run(num_tasks, task);
  } else {
    for (std::size_t t = 0; t < num_tasks; ++t) task(t);
  }
}

void internal::BucketByClass(std::span<const std::uint32_t> cls,
                             std::size_t num_classes,
                             std::vector<std::uint32_t>& offsets,
                             std::vector<std::uint32_t>& ids) {
  // Ids land ascending within each bucket because they are scanned in
  // ascending order.
  offsets.assign(num_classes + 1, 0);
  for (const std::uint32_t c : cls) ++offsets[c + 1];
  for (std::size_t c = 1; c < offsets.size(); ++c) offsets[c] += offsets[c - 1];
  ids.assign(cls.size(), 0);  // exact capacity when the column grew
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t id = 0; id < cls.size(); ++id)
    ids[cursor[cls[id]]++] = static_cast<std::uint32_t>(id);
}

void internal::RequirePartitionGroup(ProcessSet g, int num_processes) {
  if (g.IsEmpty())
    throw ModelError(
        "the empty process set has no partition (x [{}] y relates every "
        "pair of computations)");
  if (num_processes < kMaxProcesses && (g.bits() >> num_processes) != 0)
    throw ModelError("group " + g.ToString() +
                     " names a process outside the system (" +
                     std::to_string(num_processes) + " processes)");
}

void ComputationSpace::ReplayGroupClasses(GroupIndex& index) const {
  // Replay the class links in id order — BFS and Ingest parents always have
  // smaller ids, so every parent is classified before its children.
  const ProcessSet g = ProcessSet::FromBits(index.mask_);
  const std::size_t n = links_.size();
  GroupClassMinter minter(g, n);
  for (std::size_t id = 0; id < n; ++id) {
    const ClassLink link = links_[id];
    const ProcessId extend_process =
        id == 0 ? ProcessId{0} : event_pool_[link.event].process;
    minter.Classify(id, link.parent, extend_process, proj_class_);
  }
  index.cls_ = minter.TakeClasses();
  index.cls_.shrink_to_fit();
  index.offsets_.assign(minter.num_classes() + 1, 0);
}

const ComputationSpace::GroupIndex& ComputationSpace::EnsureGroupIndex(
    ProcessSet g) const {
  internal::RequirePartitionGroup(g, num_processes_);
  std::lock_guard<std::mutex> lock(*group_mutex_);
  auto it = group_index_.find(g.bits());
  if (it != group_index_.end()) return *it->second;
  auto index = std::make_unique<GroupIndex>();
  index->mask_ = g.bits();
  ReplayGroupClasses(*index);
  internal::BucketByClass(index->cls_, index->NumClasses(), index->offsets_,
                          index->ids_);
  return *group_index_.emplace(g.bits(), std::move(index)).first->second;
}

Partition ComputationSpace::PartitionOf(ProcessSet g) const {
  internal::RequirePartitionGroup(g, num_processes_);
  if (g.Size() >= 2) {
    const GroupIndex& index = EnsureGroupIndex(g);
    return Partition(index.cls_.data(), index.offsets_, index.ids_.data());
  }
  const auto p = static_cast<std::size_t>(g.First());
  Partition part(nullptr, bucket_offsets_[p], bucket_ids_[p].data());
  part.proj_ = &proj_class_;
  part.process_ = p;
  return part;
}

bool ComputationSpace::HasGroupIndex(ProcessSet g) const {
  std::lock_guard<std::mutex> lock(*group_mutex_);
  return group_index_.find(g.bits()) != group_index_.end();
}

std::vector<std::uint32_t> ComputationSpace::CanonicalIdsOf(
    std::size_t id) const {
  // Replay the splice chain root-to-leaf: collect (pos, event) links by
  // walking parents, then insert each event at its recorded position.
  if (id >= links_.size())
    throw std::out_of_range("ComputationSpace: class id " +
                            std::to_string(id) + " out of range");
  const std::size_t n = links_[id].length;
  std::vector<std::pair<std::uint16_t, std::uint32_t>> splices(n);
  std::size_t cur = id;
  for (std::size_t i = n; i-- > 0;) {
    const ClassLink link = links_[cur];
    splices[i] = {link.pos, link.event};
    cur = link.parent;
  }
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (const auto& [pos, event] : splices)
    out.insert(out.begin() + pos, event);
  return out;
}

Computation ComputationSpace::At(std::size_t id) const {
  const std::vector<std::uint32_t> ids = CanonicalIdsOf(id);
  std::vector<Event> events;
  events.reserve(ids.size());
  for (std::uint32_t e : ids) events.push_back(event_pool_[e]);
  return Computation::TrustedFromEvents(std::move(events));
}

ComputationSpace::SpliceCursor::SpliceCursor(const ComputationSpace& space,
                                             std::size_t end)
    : space_(space), rows_(1), row_class_(1, 0) {
  // rows_[0] is the root's empty row, owned by class 0 for good.
  if (end > space.size())
    throw std::out_of_range("ComputationSpace::ForEachComputation: end " +
                            std::to_string(end) + " exceeds size " +
                            std::to_string(space.size()));
}

const Computation& ComputationSpace::SpliceCursor::Materialize(
    std::size_t id) {
  ClassLink link = space_.links_[id];
  std::size_t depth = link.length;
  if (rows_.size() <= depth) {
    rows_.resize(depth + 1);
    row_class_.resize(depth + 1, UINT32_MAX);
  }
  // Collect the splice links from `id` up to the deepest class whose row is
  // cached.  Depth follows the recorded length down to the root's empty row
  // — the walk At() makes — so the result equals At(id) on every space.
  chain_.clear();
  for (std::size_t cur = id; depth > 0 && row_class_[depth] != cur; --depth) {
    if (cur != id) link = space_.links_[cur];
    chain_.emplace_back(static_cast<std::uint32_t>(cur), link);
    cur = link.parent;
  }
  // Replay them root-side first: each row is the row one level up with one
  // event spliced in.
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
    const auto& [cls, link] = *it;
    const std::vector<std::uint32_t>& src = rows_[depth];
    std::vector<std::uint32_t>& dst = rows_[depth + 1];
    dst.resize(depth + 1);
    std::copy(src.begin(), src.begin() + link.pos, dst.begin());
    dst[link.pos] = link.event;
    std::copy(src.begin() + link.pos, src.end(), dst.begin() + link.pos + 1);
    row_class_[++depth] = cls;
  }
  // Refill the recycled event buffer, copying only the positions whose
  // pool id differs from the class it held before — consecutive classes
  // share most of their canonical prefix.
  const std::vector<std::uint32_t>& row = rows_[depth];
  std::vector<Event> events = std::move(x_).TakeEvents();
  events.resize(row.size());
  const std::size_t kept = std::min(held_.size(), row.size());
  for (std::size_t k = 0; k < row.size(); ++k)
    if (k >= kept || held_[k] != row[k])
      events[k] = space_.event_pool_[row[k]];
  held_ = row;
  x_ = Computation::TrustedFromEvents(std::move(events));
  return x_;
}

ComputationSpace::SuccessorRange ComputationSpace::SuccessorsOf(
    std::size_t id) const {
  if (id + 1 >= succ_offsets_.size())
    throw std::out_of_range("ComputationSpace::SuccessorsOf: class id " +
                            std::to_string(id) + " out of range");
  const std::uint32_t b = succ_offsets_[id];
  const std::uint32_t e = succ_offsets_[id + 1];
  SuccessorRange range(this, b, e);
  if (b < e) {
    // Pin the payload segments the range covers.  Per-class successor
    // lists are tiny, so the range touches at most two segments per
    // column; iteration re-resolves pointers per element anyway, so the
    // pins are a stability guarantee, not a correctness requirement.
    const std::size_t s0 = succ_class_.SegOf(b);
    const std::size_t s1 = succ_class_.SegOf(e - 1);
    succ_class_.PinSegment(s0, &range.class_pin_[0]);
    succ_event_.PinSegment(s0, &range.event_pin_[0]);
    if (s1 != s0) {
      succ_class_.PinSegment(s1, &range.class_pin_[1]);
      succ_event_.PinSegment(s1, &range.event_pin_[1]);
    }
  }
  return range;
}

ComputationSpace::SegmentCursor::SegmentCursor(const ComputationSpace* space,
                                               std::size_t first_id,
                                               std::size_t limit,
                                               bool trim_behind)
    : space_(space),
      limit_(std::min(limit, space->size())),
      trim_(trim_behind) {
  begin_ = std::min(first_id, limit_);
  end_ = begin_;
  if (begin_ < limit_) {
    seg_ = space_->links_.SegOf(begin_);
    PinCurrent();
  }
}

void ComputationSpace::SegmentCursor::PinCurrent() {
  // links_ has one element per row, so its segment boundaries are the class
  // rows' — the same segment index covers the same rows in proj_class_.
  end_ = std::min(limit_, space_->links_.SegmentEnd(seg_));
  space_->links_.PinSegment(seg_, &links_pin_);
  space_->proj_class_.PinSegment(seg_, &proj_pin_);
}

void ComputationSpace::SegmentCursor::Next() {
  links_pin_.Release();
  proj_pin_.Release();
  if (trim_ && space_->store_->out_of_core()) space_->store_->EnforceBudget();
  begin_ = end_;
  if (begin_ >= limit_) return;
  ++seg_;
  PinCurrent();
}

ComputationSpace::SegmentCursor ComputationSpace::Classes(
    std::size_t first_id, std::size_t limit, bool trim_behind) const {
  return SegmentCursor(this, first_id, std::min(limit, size()), trim_behind);
}

std::vector<std::size_t> ComputationSpace::IdsByLength() const {
  // BFS mints ids level by level, so ids are already length-sorted there;
  // SpaceBuilder::Ingest can splice in classes out of length order, which
  // the stable sort repairs while keeping ids ascending within a length.
  std::vector<std::size_t> ids(size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  std::stable_sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
    return links_[a].length < links_[b].length;
  });
  return ids;
}

std::optional<std::size_t> ComputationSpace::IndexOf(
    const Computation& c) const {
  const Computation key = canonicalize_ ? c.Canonical() : c;
  // Stored sequences are canonical (or literal with canonicalization off),
  // so the index key is always the plain SequenceHash of the lookup form.
  const std::size_t h = key.SequenceHash();
  for (std::size_t i = LowerBound(canon_hash_, h);
       i < canon_hash_.size() && canon_hash_[i] == h; ++i) {
    const std::uint32_t id = canon_id_[i];
    if (LengthOf(id) == key.size() && At(id) == key) return id;
  }
  return std::nullopt;
}

std::size_t ComputationSpace::RequireIndex(const Computation& c) const {
  auto id = IndexOf(c);
  if (!id.has_value())
    throw ModelError("computation not in the space of system '" +
                     system_name_ + "': " + c.ToString());
  return *id;
}

ComputationSpace::MemoryStats ComputationSpace::MemoryUsage() const {
  // Logical column sizes (elements x element size, independent of where
  // the segments currently live), plus a residency split from the segment
  // store.  The AoS-equivalent mirrors the seed layout's minimum heap
  // footprint for the same space — per-class owned event vectors, per-class
  // successor vectors of (id, Event) pairs, vector-of-vector buckets, and
  // an unordered_map canonical index — computed from the same class lengths
  // and counts.  Labels are assumed SSO-resident in the AoS estimate (true
  // of every system in the repo); allocator headers are excluded on both
  // sides, so the comparison favors the AoS side if anything.
  MemoryStats s;
  s.classes = links_.size();
  s.bytes_event_pool = event_pool_.capacity() * sizeof(Event);
  for (const Event& e : event_pool_)
    if (e.label.capacity() > std::string().capacity())
      s.bytes_event_pool += e.label.capacity() + 1;
  s.bytes_class_links = links_.ByteSize();
  s.bytes_canon_index = canon_hash_.ByteSize() + canon_id_.ByteSize();
  s.bytes_projection = proj_class_.ByteSize();
  auto vec_bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  for (const auto& offsets : bucket_offsets_)
    s.bytes_buckets += vec_bytes(offsets);
  for (const auto& ids : bucket_ids_) s.bytes_buckets += vec_bytes(ids);
  s.bytes_successors = succ_offsets_.ByteSize() + succ_class_.ByteSize() +
                       succ_event_.ByteSize();
  {
    std::lock_guard<std::mutex> lock(*group_mutex_);
    for (const auto& [mask, index] : group_index_)
      s.bytes_group_index += index->MemoryBytes();
  }
  s.bytes_total = s.bytes_event_pool + s.bytes_class_links +
                  s.bytes_canon_index + s.bytes_projection + s.bytes_buckets +
                  s.bytes_successors + s.bytes_group_index;

  // Residency split: segmented payload by state, plus the always-resident
  // columns (event pool, bucket CSR, group indexes) under bytes_resident.
  const internal::SegmentedSpaceStore::Stats store = store_->GetStats();
  s.segments = store.segments;
  s.spill_faults = static_cast<std::size_t>(store.spill_faults);
  s.spill_writes = static_cast<std::size_t>(store.spill_writes);
  s.bytes_mapped = static_cast<std::size_t>(store.bytes_mapped);
  s.bytes_spilled = static_cast<std::size_t>(store.bytes_spilled);
  s.bytes_resident = static_cast<std::size_t>(store.bytes_resident) +
                     s.bytes_event_pool + s.bytes_buckets +
                     s.bytes_group_index;

  std::size_t total_events = 0;
  for (std::size_t id = 0; id < s.classes; ++id)
    total_events += links_[id].length;
  const std::size_t num_successors = succ_class_.size();
  std::size_t num_buckets = 0;
  for (const auto& offsets : bucket_offsets_) num_buckets += offsets.size() - 1;
  // Seed AoS layout: std::vector<Computation> (header + owned Event buffer),
  // std::vector<std::vector<Successor>> with Successor = {std::size_t,
  // Event}, unordered_map<std::size_t, std::vector<std::uint32_t>> canonical
  // index (per class: one id slot + one map node of two words, a bucket
  // pointer, and a vector header), per-process vector-of-vector buckets,
  // proj_class_, and the stored by-length permutation.
  s.bytes_aos_equivalent =
      s.classes * sizeof(Computation) + total_events * sizeof(Event) +
      s.classes * sizeof(std::vector<Successor>) +
      num_successors * (sizeof(std::size_t) + sizeof(Event)) +
      s.classes * (sizeof(std::uint32_t) + 3 * sizeof(void*) +
                   sizeof(std::vector<std::uint32_t>)) +
      num_buckets * sizeof(std::vector<std::uint32_t>) +
      s.classes * static_cast<std::size_t>(num_processes_) *
          2 * sizeof(std::uint32_t) +
      s.classes * sizeof(std::size_t);
  // The AoS scan above faulted every links segment in; don't let a stats
  // probe permanently blow the budget.
  if (store_->out_of_core()) store_->EnforceBudget();
  return s;
}

bool ComputationSpace::Isomorphic(std::size_t a, std::size_t b,
                                  ProcessSet set) const {
  bool ok = true;
  set.ForEach([&](ProcessId p) {
    if (ok && ProjectionClass(a, p) != ProjectionClass(b, p)) ok = false;
  });
  return ok;
}

bool ComputationSpace::ComposedIsomorphic(
    std::size_t a, std::size_t b,
    const std::vector<ProcessSet>& stages) const {
  std::vector<std::size_t> frontier = ComposedReachable(a, stages);
  return std::find(frontier.begin(), frontier.end(), b) != frontier.end();
}

std::vector<std::size_t> ComputationSpace::ComposedPath(
    std::size_t a, std::size_t b,
    const std::vector<ProcessSet>& stages) const {
  // Layered BFS recording a predecessor per (stage, node).
  constexpr std::size_t kUnset = SIZE_MAX;
  std::vector<std::vector<std::size_t>> pred(
      stages.size() + 1, std::vector<std::size_t>(size(), kUnset));
  std::vector<std::size_t> frontier{a};
  pred[0][a] = a;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    std::vector<std::size_t> next;
    for (std::size_t x : frontier) {
      ForEachIsomorphic(x, stages[i], [&](std::size_t y) {
        if (pred[i + 1][y] == kUnset) {
          pred[i + 1][y] = x;
          next.push_back(y);
        }
      });
    }
    frontier.swap(next);
  }
  if (pred[stages.size()][b] == kUnset) return {};
  std::vector<std::size_t> path(stages.size() + 1);
  std::size_t cur = b;
  for (std::size_t i = stages.size() + 1; i-- > 0;) {
    path[i] = cur;
    cur = pred[i][cur];
  }
  return path;
}

std::vector<std::size_t> ComputationSpace::ComposedReachable(
    std::size_t a, const std::vector<ProcessSet>& stages) const {
  std::vector<char> in_frontier(size(), 0);
  std::vector<std::size_t> frontier{a};
  in_frontier[a] = 1;
  for (const ProcessSet& stage : stages) {
    std::vector<char> next_in(size(), 0);
    std::vector<std::size_t> next;
    for (std::size_t x : frontier) {
      ForEachIsomorphic(x, stage, [&](std::size_t y) {
        if (!next_in[y]) {
          next_in[y] = 1;
          next.push_back(y);
        }
      });
    }
    in_frontier.swap(next_in);
    frontier.swap(next);
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

}  // namespace hpl
