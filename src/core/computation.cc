#include "core/computation.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace hpl {
namespace {

std::size_t HashEventSequence(std::span<const Event> events) noexcept {
  SequenceHashFold fold(events.size());
  for (const Event& e : events) fold.Add(HashEvent(e));
  return fold.hash();
}

}  // namespace

Computation::Computation(std::vector<Event> events)
    : events_(std::move(events)) {
  Validate();
}

Computation Computation::TrustedFromEvents(std::vector<Event> events) {
  Computation c;
  c.events_ = std::move(events);
  return c;
}

void Computation::Validate() const {
  // Message discipline: each message id is sent at most once and received at
  // most once; a receive must come after its send, with matching endpoints
  // and label.  Self-sends are ruled out ("sending of a message to another
  // process").
  std::unordered_map<MessageId, std::size_t> send_at;
  std::unordered_set<MessageId> received;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.process < 0 || e.process >= kMaxProcesses)
      throw ModelError("event " + std::to_string(i) + ": bad process id");
    switch (e.kind) {
      case EventKind::kInternal:
        break;
      case EventKind::kSend: {
        if (e.message == kNoMessage)
          throw ModelError("send without message id at " + std::to_string(i));
        if (e.peer == e.process)
          throw ModelError("self-send at " + std::to_string(i));
        if (e.peer < 0 || e.peer >= kMaxProcesses)
          throw ModelError("send to bad process at " + std::to_string(i));
        if (!send_at.emplace(e.message, i).second)
          throw ModelError("message m" + std::to_string(e.message) +
                           " sent twice");
        break;
      }
      case EventKind::kReceive: {
        auto it = send_at.find(e.message);
        if (it == send_at.end())
          throw ModelError("receive of m" + std::to_string(e.message) +
                           " at " + std::to_string(i) +
                           " without earlier corresponding send");
        const Event& s = events_[it->second];
        if (s.peer != e.process || s.process != e.peer)
          throw ModelError("receive of m" + std::to_string(e.message) +
                           " endpoints do not match its send");
        if (s.label != e.label)
          throw ModelError("receive of m" + std::to_string(e.message) +
                           " label differs from its send");
        if (!received.insert(e.message).second)
          throw ModelError("message m" + std::to_string(e.message) +
                           " received twice");
        break;
      }
    }
  }
}

std::vector<Event> Computation::Projection(ProcessId p) const {
  std::vector<Event> out;
  for (const Event& e : events_)
    if (e.process == p) out.push_back(e);
  return out;
}

std::vector<Event> Computation::ProjectionOnSet(ProcessSet set) const {
  std::vector<Event> out;
  for (const Event& e : events_)
    if (e.IsOn(set)) out.push_back(e);
  return out;
}

int Computation::CountOn(ProcessId p) const {
  int n = 0;
  for (const Event& e : events_)
    if (e.process == p) ++n;
  return n;
}

ProcessSet Computation::ActiveProcesses() const {
  ProcessSet s;
  for (const Event& e : events_) s.Insert(e.process);
  return s;
}

bool Computation::IsPrefixOf(const Computation& z) const {
  if (size() > z.size()) return false;
  return std::equal(events_.begin(), events_.end(), z.events_.begin());
}

std::vector<Event> Computation::SuffixAfter(const Computation& y) const {
  if (!y.IsPrefixOf(*this))
    throw ModelError("SuffixAfter: argument is not a prefix");
  return std::vector<Event>(events_.begin() + y.size(), events_.end());
}

Computation Computation::Extended(const Event& e) const {
  std::string why;
  if (!CanExtend(*this, e, &why))
    throw ModelError("Extended: " + why);
  std::vector<Event> ev = events_;
  ev.push_back(e);
  return TrustedFromEvents(std::move(ev));
}

Computation Computation::Concat(std::span<const Event> tail) const {
  std::vector<Event> ev = events_;
  ev.insert(ev.end(), tail.begin(), tail.end());
  return Computation(std::move(ev));  // full validation
}

Computation Computation::Prefix(std::size_t n) const {
  if (n > size()) throw ModelError("Prefix: length exceeds computation");
  return TrustedFromEvents(
      std::vector<Event>(events_.begin(), events_.begin() + n));
}

Computation Computation::Canonical() const {
  // Greedy deterministic topological sort of the event partial order:
  // per-process program order plus send-before-receive.  At each step emit
  // the eligible event belonging to the lowest process id.  The result is a
  // canonical representative of the [D]-class.
  const std::size_t n = events_.size();
  // Per-process queues of event indices in program order.
  std::vector<std::vector<std::size_t>> per_proc(kMaxProcesses);
  for (std::size_t i = 0; i < n; ++i)
    per_proc[events_[i].process].push_back(i);

  std::unordered_set<MessageId> sent;  // messages whose send was emitted
  std::vector<std::size_t> head(kMaxProcesses, 0);
  std::vector<Event> out;
  out.reserve(n);

  ProcessSet active = ActiveProcesses();
  std::size_t emitted = 0;
  while (emitted < n) {
    bool progress = false;
    for (ProcessId p = 0; p < kMaxProcesses; ++p) {
      if (!active.Contains(p)) continue;
      while (head[p] < per_proc[p].size()) {
        const Event& e = events_[per_proc[p][head[p]]];
        if (e.IsReceive() && !sent.contains(e.message)) break;
        if (e.IsSend()) sent.insert(e.message);
        out.push_back(e);
        ++head[p];
        ++emitted;
        progress = true;
      }
    }
    if (!progress)
      throw ModelError("Canonical: cyclic dependency (corrupt computation)");
  }
  return TrustedFromEvents(std::move(out));
}

Computation Computation::CanonicalExtended(const Event& e) const {
  std::string why;
  if (!CanExtend(*this, e, &why))
    throw ModelError("CanonicalExtended: " + why);
  const std::size_t pos = CanonicalInsertPos(e);
  std::vector<Event> out;
  out.reserve(events_.size() + 1);
  out.insert(out.end(), events_.begin(), events_.begin() + pos);
  out.push_back(e);
  out.insert(out.end(), events_.begin() + pos, events_.end());
  return TrustedFromEvents(std::move(out));
}

std::size_t Computation::CanonicalInsertPos(const Event& e) const {
  return hpl::CanonicalInsertPos(events_, e);
}

std::size_t Computation::CanonicalHash() const {
  return HashEventSequence(Canonical().events());
}

std::size_t Computation::SequenceHash() const {
  return HashEventSequence(events_);
}

std::size_t Computation::ProjectionHash(ProcessId p) const {
  std::size_t h = 0x51ed270b;
  int count = 0;
  for (const Event& e : events_) {
    if (e.process != p) continue;
    h ^= HashEvent(e) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    ++count;
  }
  h ^= static_cast<std::size_t>(count) + (h << 3);
  return h;
}

bool Computation::IsPermutationOf(const Computation& other) const {
  if (size() != other.size()) return false;
  return Canonical() == other.Canonical();
}

std::optional<std::size_t> Computation::CorrespondingSend(
    std::size_t i) const {
  const Event& e = events_.at(i);
  if (!e.IsReceive()) return std::nullopt;
  for (std::size_t j = 0; j < i; ++j)
    if (events_[j].IsSend() && events_[j].message == e.message) return j;
  return std::nullopt;  // unreachable for validated computations
}

std::string Computation::ToString() const {
  std::string out = "<";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i) out += " ";
    out += events_[i].ToString();
  }
  out += ">";
  return out;
}

}  // namespace hpl
