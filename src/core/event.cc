#include "core/event.h"

#include <functional>

namespace hpl {

const char* ToString(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kInternal:
      return "internal";
    case EventKind::kSend:
      return "send";
    case EventKind::kReceive:
      return "receive";
  }
  return "?";
}

std::string Event::ToString() const {
  // Appends into one string: gcc 12 -O3 flags `"lit" + std::to_string(n)`
  // with a false -Werror=restrict positive.
  std::string out = "p";
  out += std::to_string(process);
  switch (kind) {
    case EventKind::kInternal:
      out += ".internal";
      break;
    case EventKind::kSend:
    case EventKind::kReceive:
      out += kind == EventKind::kSend ? ".send(m" : ".recv(m";
      out += std::to_string(message);
      out += kind == EventKind::kSend ? "->p" : "<-p";
      out += std::to_string(peer);
      out += ')';
      break;
  }
  if (!label.empty()) {
    out += '[';
    out += label;
    out += ']';
  }
  return out;
}

Event Internal(ProcessId p, std::string label) {
  Event e;
  e.process = p;
  e.kind = EventKind::kInternal;
  e.label = std::move(label);
  return e;
}

Event Send(ProcessId from, ProcessId to, MessageId m, std::string label) {
  Event e;
  e.process = from;
  e.kind = EventKind::kSend;
  e.message = m;
  e.peer = to;
  e.label = std::move(label);
  return e;
}

Event Receive(ProcessId at, ProcessId from, MessageId m, std::string label) {
  Event e;
  e.process = at;
  e.kind = EventKind::kReceive;
  e.message = m;
  e.peer = from;
  e.label = std::move(label);
  return e;
}

std::size_t HashEvent(const Event& e) noexcept {
  std::size_t h = std::hash<int>{}(e.process);
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::size_t>(e.kind));
  mix(std::hash<std::int64_t>{}(e.message));
  mix(std::hash<int>{}(e.peer));
  mix(std::hash<std::string>{}(e.label));
  return h;
}

}  // namespace hpl
