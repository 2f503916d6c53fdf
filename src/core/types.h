// Core identifier and set types for the "How Processes Learn" library.
//
// The paper (Chandy & Misra, PODC 1985) models a distributed system as a
// finite set of processes.  We identify processes by small integers and
// represent sets of processes ("P", "Q" in the paper) as 64-bit masks, which
// comfortably covers every construction in the paper (its examples use five
// processes) and all our experiments.
#ifndef HPL_CORE_TYPES_H_
#define HPL_CORE_TYPES_H_

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace hpl {

// Index of a process within a system.  Valid ids are 0 .. kMaxProcesses-1.
using ProcessId = int;

// Unique identifier of a message within one system computation.  The paper
// assumes "all events and all messages are distinguished"; a distinct
// MessageId per send realizes that assumption.
using MessageId = std::int64_t;

inline constexpr int kMaxProcesses = 64;
inline constexpr MessageId kNoMessage = -1;
inline constexpr ProcessId kNoProcess = -1;

// Thrown when a sequence of events violates the definition of a system
// computation (Section 2 of the paper) or when API preconditions are broken.
class ModelError : public std::runtime_error {
 public:
  explicit ModelError(const std::string& what) : std::runtime_error(what) {}
};

// A set of processes ("process set" in the paper).  Value type; cheap to
// copy.  Supports the operations the paper uses: union, intersection,
// difference, complement with respect to the full set D, and membership.
class ProcessSet {
 public:
  constexpr ProcessSet() noexcept = default;

  constexpr ProcessSet(std::initializer_list<ProcessId> ids) {
    for (ProcessId id : ids) Insert(id);
  }

  // The singleton set {p}.
  static constexpr ProcessSet Of(ProcessId p) {
    ProcessSet s;
    s.Insert(p);
    return s;
  }

  // The set {0, 1, ..., n-1}; the paper's "D" for an n-process system.
  static constexpr ProcessSet All(int n) {
    CheckCount(n);
    ProcessSet s;
    s.bits_ = (n == kMaxProcesses) ? ~std::uint64_t{0}
                                   : ((std::uint64_t{1} << n) - 1);
    return s;
  }

  static constexpr ProcessSet Empty() noexcept { return ProcessSet{}; }

  static constexpr ProcessSet FromBits(std::uint64_t bits) noexcept {
    ProcessSet s;
    s.bits_ = bits;
    return s;
  }

  constexpr void Insert(ProcessId p) {
    CheckId(p);
    bits_ |= (std::uint64_t{1} << p);
  }

  constexpr void Erase(ProcessId p) {
    CheckId(p);
    bits_ &= ~(std::uint64_t{1} << p);
  }

  constexpr bool Contains(ProcessId p) const {
    CheckId(p);
    return (bits_ >> p) & 1u;
  }

  constexpr bool IsEmpty() const noexcept { return bits_ == 0; }

  constexpr int Size() const noexcept { return __builtin_popcountll(bits_); }

  constexpr std::uint64_t bits() const noexcept { return bits_; }

  // Set algebra.  Complement() requires the universe D = All(n).
  constexpr ProcessSet Union(ProcessSet o) const noexcept {
    return FromBits(bits_ | o.bits_);
  }
  constexpr ProcessSet Intersect(ProcessSet o) const noexcept {
    return FromBits(bits_ & o.bits_);
  }
  constexpr ProcessSet Minus(ProcessSet o) const noexcept {
    return FromBits(bits_ & ~o.bits_);
  }
  // The paper writes P̄ for D - P.
  constexpr ProcessSet ComplementIn(ProcessSet universe) const noexcept {
    return FromBits(universe.bits_ & ~bits_);
  }

  constexpr bool IsSubsetOf(ProcessSet o) const noexcept {
    return (bits_ & ~o.bits_) == 0;
  }
  constexpr bool Intersects(ProcessSet o) const noexcept {
    return (bits_ & o.bits_) != 0;
  }

  constexpr bool operator==(const ProcessSet&) const noexcept = default;

  // Iterates members in increasing id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::uint64_t b = bits_;
    while (b != 0) {
      const int p = __builtin_ctzll(b);
      fn(static_cast<ProcessId>(p));
      b &= b - 1;
    }
  }

  // Lowest-id member; throws on empty set.
  ProcessId First() const {
    if (IsEmpty()) throw ModelError("ProcessSet::First on empty set");
    return __builtin_ctzll(bits_);
  }

  std::string ToString() const {
    std::string out = "{";
    bool first = true;
    ForEach([&](ProcessId p) {
      if (!first) out += ",";
      out += 'p';
      out += std::to_string(p);
      first = false;
    });
    out += "}";
    return out;
  }

 private:
  static constexpr void CheckId(ProcessId p) {
    if (p < 0 || p >= kMaxProcesses)
      throw ModelError("ProcessId out of range [0, 64)");
  }
  static constexpr void CheckCount(int n) {
    if (n < 0 || n > kMaxProcesses)
      throw ModelError("process count out of range [0, 64]");
  }

  std::uint64_t bits_ = 0;
};

}  // namespace hpl

#endif  // HPL_CORE_TYPES_H_
