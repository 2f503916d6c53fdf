// A check's answer read straight off the value plane.  serve's
// DigestSatisfying (a popcount and an FNV-1a walk over the set bits) must
// equal the byte-serial FNV-1a over the ascending ids, and
// KnowledgeEvaluator::SatisfyingBits must hold exactly the SatisfyingSet
// ids, one word per 64 classes, with every bit past the space's size zero.
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/space.h"
#include "protocols/token_bus.h"
#include "serve/serve.h"

namespace hpl {
namespace {

using Bits = std::vector<std::uint64_t>;

// The reference: FNV-1a over each id's 8 little-endian bytes, one byte at
// a time.
std::uint64_t ReferenceFnv(const std::vector<std::size_t>& sat) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t id : sat) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(id) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::vector<std::size_t> Ids(std::span<const std::uint64_t> bits) {
  std::vector<std::size_t> ids;
  ForEachSetBit(bits, [&](std::size_t id) { ids.push_back(id); });
  return ids;
}

// An `n`-bit plane with `ids` set.
Bits PlaneOf(std::size_t n, const std::vector<std::size_t>& ids) {
  Bits plane((n + 63) / 64, 0);
  for (std::size_t id : ids) plane[id / 64] |= std::uint64_t{1} << (id % 64);
  return plane;
}

void ExpectDigestIsReference(const Bits& plane) {
  const std::vector<std::size_t> ids = Ids(plane);
  const serve::SatisfyingDigest digest = serve::DigestSatisfying(plane);
  EXPECT_EQ(digest.count, ids.size());
  EXPECT_EQ(digest.hash, ReferenceFnv(ids)) << ids.size() << " ids";
}

TEST(SatisfyingDigestTest, EmptyPlaneIsTheOffsetBasis) {
  for (const Bits& plane : {Bits{}, Bits(9, 0)}) {
    const serve::SatisfyingDigest digest = serve::DigestSatisfying(plane);
    EXPECT_EQ(digest.count, 0u);
    EXPECT_EQ(digest.HashHex(), "cbf29ce484222325");
  }
}

TEST(SatisfyingDigestTest, IdZero) {
  ExpectDigestIsReference(PlaneOf(1, {0}));
  ExpectDigestIsReference(PlaneOf(64, {0, 63}));
}

// Ids on each side of 2^8, 2^16 and 2^24, where an id gains a nonzero byte.
TEST(SatisfyingDigestTest, IdsAroundEveryByteBoundary) {
  std::vector<std::size_t> all = {0};
  for (const int shift : {8, 16, 24}) {
    const std::size_t b = std::size_t{1} << shift;
    ExpectDigestIsReference(PlaneOf(b + 1, {b - 1, b}));
    ExpectDigestIsReference(PlaneOf(b + 64, {b - 64, b + 63}));
    ExpectDigestIsReference(PlaneOf(b + 1, {b}));
    all.insert(all.end(), {b - 1, b, b + 1});
  }
  ExpectDigestIsReference(PlaneOf(all.back() + 1, all));
}

// Random planes of the perfbench serve space's size, empty to full.
TEST(SatisfyingDigestTest, RandomPlanesOfEveryDensity) {
  constexpr std::size_t kClasses = 557137;
  std::mt19937_64 rng(24);
  for (const double density : {0.0, 0.001, 0.3, 0.5, 0.97, 1.0}) {
    std::bernoulli_distribution holds(density);
    std::vector<std::size_t> ids;
    for (std::size_t id = 0; id < kClasses; ++id)
      if (holds(rng)) ids.push_back(id);
    ExpectDigestIsReference(PlaneOf(kClasses, ids));
  }
}

TEST(SatisfyingDigestTest, PartialLastWord) {
  ExpectDigestIsReference(PlaneOf(130, {1, 63, 64, 127, 128, 129}));
  ExpectDigestIsReference(PlaneOf(65, {64}));
}

// --- SatisfyingBits -------------------------------------------------------

std::vector<FormulaPtr> Formulas(const protocols::TokenBusSystem& bus) {
  std::vector<Predicate> atoms;
  for (ProcessId p = 0; p < bus.NumProcesses(); ++p)
    atoms.push_back(bus.HoldsToken(p));
  std::vector<FormulaPtr> formulas;
  for (const char* text :
       {"token_at_p0", "!token_at_p1", "token_at_p1 || !token_at_p1",
        "K{0} token_at_p0", "!K{1} token_at_p0", "M{1} !token_at_p2",
        "Sure{0,2} token_at_p1", "E{0,1} token_at_p0", "CK{0,1} token_at_p0",
        "!CK{1} token_at_p1"})
    formulas.push_back(Formula::Parse(text, atoms));
  // The empty group relates every class; the parser takes no empty group.
  const FormulaPtr token_at_p0 = Formula::Atom(atoms[0]);
  formulas.push_back(Formula::Knows(ProcessSet{}, token_at_p0));
  formulas.push_back(
      Formula::Not(Formula::Possible(ProcessSet{}, token_at_p0)));
  return formulas;
}

// The plane's size, its zero tail and its ids, against SatisfyingSet and
// the fused form.
void ExpectPlanesAreTheSets(KnowledgeEvaluator& eval,
                            const std::vector<FormulaPtr>& formulas) {
  const std::size_t n = eval.space().size();
  ASSERT_NE(n % 64, 0u) << "the case needs a partial last word";
  std::vector<Bits> planes;
  for (const FormulaPtr& f : formulas) {
    const std::span<const std::uint64_t> bits = eval.SatisfyingBits(f);
    ASSERT_EQ(bits.size(), (n + 63) / 64) << f->ToString();
    EXPECT_EQ(bits.back() >> (n % 64), 0u) << f->ToString();
    planes.emplace_back(bits.begin(), bits.end());
    EXPECT_EQ(Ids(planes.back()), eval.SatisfyingSet(f)) << f->ToString();
  }
  const auto fused = eval.SatisfyingBits(formulas);
  ASSERT_EQ(fused.size(), formulas.size());
  for (std::size_t k = 0; k < formulas.size(); ++k)
    EXPECT_EQ(Bits(fused[k].begin(), fused[k].end()), planes[k])
        << formulas[k]->ToString();
}

TEST(SatisfyingBitsTest, PlaneHoldsTheSatisfyingSet) {
  // 11 and 65 classes.
  for (const auto& [n, passes] : {std::pair{3, 3}, std::pair{4, 6}}) {
    const protocols::TokenBusSystem bus(n, passes);
    const ComputationSpace space =
        ComputationSpace::Enumerate(bus, {.num_threads = 1});
    for (const int threads : {1, 2})
      for (const bool kernels : {true, false}) {
        SCOPED_TRACE(bus.Name() + " threads=" + std::to_string(threads) +
                     " kernels=" + std::to_string(kernels));
        KnowledgeEvaluator eval(
            space, {.num_threads = threads, .compiled_kernels = kernels});
        ExpectPlanesAreTheSets(eval, Formulas(bus));
      }
  }
}

TEST(SatisfyingBitsTest, GrownPlanesAfterRefresh) {
  const protocols::TokenBusSystem bus(4, 6);
  EnumerationLimits limits;
  limits.max_depth = 10;
  limits.allow_truncation = true;
  limits.num_threads = 1;
  SpaceBuilder builder;
  builder.Build(bus, limits);
  KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
  ExpectPlanesAreTheSets(eval, Formulas(bus));
  builder.Deepen(1);
  eval.Refresh();
  ExpectPlanesAreTheSets(eval, Formulas(bus));
  KnowledgeEvaluator fresh(builder.space(), {.num_threads = 1});
  for (const FormulaPtr& f : Formulas(bus))
    EXPECT_EQ(eval.SatisfyingSet(f), fresh.SatisfyingSet(f)) << f->ToString();
}

TEST(SatisfyingBitsTest, EmptyBatchAndNullFormula) {
  const protocols::TokenBusSystem bus(3, 3);
  const ComputationSpace space =
      ComputationSpace::Enumerate(bus, {.num_threads = 1});
  KnowledgeEvaluator eval(space, {.num_threads = 1});
  EXPECT_TRUE(eval.SatisfyingBits(std::span<const FormulaPtr>{}).empty());
  EXPECT_THROW(eval.SatisfyingBits(FormulaPtr{}), ModelError);
}

}  // namespace
}  // namespace hpl
