#include "core/predicate.h"

#include <cstdint>
#include <vector>

namespace hpl {

Predicate Predicate::operator!() const {
  Fn self = fn_;
  return Predicate("!(" + name_ + ")",
                   [self](const Computation& x) { return !self(x); });
}

Predicate Predicate::operator&&(const Predicate& other) const {
  Fn a = fn_, b = other.fn_;
  return Predicate("(" + name_ + " && " + other.name_ + ")",
                   [a, b](const Computation& x) { return a(x) && b(x); });
}

Predicate Predicate::operator||(const Predicate& other) const {
  Fn a = fn_, b = other.fn_;
  return Predicate("(" + name_ + " || " + other.name_ + ")",
                   [a, b](const Computation& x) { return a(x) || b(x); });
}

Predicate Predicate::Implies(const Predicate& other) const {
  Fn a = fn_, b = other.fn_;
  return Predicate("(" + name_ + " => " + other.name_ + ")",
                   [a, b](const Computation& x) { return !a(x) || b(x); });
}

Predicate Predicate::True() {
  return Predicate("true", [](const Computation&) { return true; });
}

Predicate Predicate::False() {
  return Predicate("false", [](const Computation&) { return false; });
}

Predicate Predicate::OnProjection(ProcessId p, std::string name,
                                  ProjectionFn fn) {
  if (p < 0 || p >= kMaxProcesses)
    throw ModelError("Predicate::OnProjection: process " + std::to_string(p) +
                     " is out of range");
  if (!fn) throw ModelError("Predicate::OnProjection: empty function");
  Predicate out(std::move(name), [p, fn](const Computation& x) {
    const std::vector<Event> projection = x.Projection(p);
    return fn(projection);
  });
  out.local_process_ = p;
  out.projection_fn_ = std::move(fn);
  return out;
}

Predicate Predicate::CountOnAtLeast(ProcessId p, int k) {
  return OnProjection(
      p, "count(p" + std::to_string(p) + ")>=" + std::to_string(k),
      [k](std::span<const Event> events) {
        return static_cast<std::int64_t>(events.size()) >= k;
      });
}

Predicate Predicate::DidInternal(ProcessId p, std::string label) {
  std::string name = "did(p" + std::to_string(p) + "," + label + ")";
  return OnProjection(p, std::move(name),
                      [label = std::move(label)](std::span<const Event> events) {
                        for (const Event& e : events)
                          if (e.IsInternal() && e.label == label) return true;
                        return false;
                      });
}

Predicate Predicate::HasLabel(std::string label) {
  return Predicate("has(" + label + ")",
                   [label = std::move(label)](const Computation& x) {
                     for (const Event& e : x.events())
                       if (e.label == label) return true;
                     return false;
                   });
}

Predicate Predicate::Sent(MessageId m) {
  return Predicate("sent(m" + std::to_string(m) + ")",
                   [m](const Computation& x) {
                     for (const Event& e : x.events())
                       if (e.IsSend() && e.message == m) return true;
                     return false;
                   });
}

Predicate Predicate::Received(MessageId m) {
  return Predicate("received(m" + std::to_string(m) + ")",
                   [m](const Computation& x) {
                     for (const Event& e : x.events())
                       if (e.IsReceive() && e.message == m) return true;
                     return false;
                   });
}

Predicate Predicate::AllMessagesDelivered() {
  return Predicate("all_delivered", [](const Computation& x) {
    int sends = 0, receives = 0;
    for (const Event& e : x.events()) {
      if (e.IsSend()) ++sends;
      if (e.IsReceive()) ++receives;
    }
    return sends == receives;
  });
}

}  // namespace hpl
