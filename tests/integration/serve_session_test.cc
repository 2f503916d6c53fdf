// The serve module in-process, without a pipe: the exact response bytes of
// every op, the id echo, the error responses, and the JSON codec beneath
// them.  serve_pipe_test.py drives the same protocol through hpl_cli; these
// tests pin the bytes one request at a time.
#include "serve/serve.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serialization.h"
#include "protocols/token_bus.h"
#include "serve/json.h"

namespace hpl::serve {
namespace {

// token_bus(n=3,passes=3) built to depth 4: 7 classes, deepenable.
class SessionTest : public ::testing::Test {
 protected:
  static EnumerationLimits Capped() {
    EnumerationLimits limits;
    limits.max_depth = 4;
    limits.allow_truncation = true;
    limits.num_threads = 1;
    return limits;
  }

  std::vector<Predicate> Atoms() const {
    return {bus_.HoldsToken(0), bus_.HoldsToken(1), bus_.HoldsToken(2)};
  }

  Session CappedSession() const {
    SpaceBuilder builder;
    builder.Build(bus_, Capped());
    return Session(std::move(builder), Atoms(), {.num_threads = 1});
  }

  // The same space saved without its builder: loads sealed.
  Session SealedSession() const {
    std::stringstream bytes;
    SaveSpaceSnapshot(ComputationSpace::Enumerate(bus_, Capped()), bytes);
    return Session(LoadSpaceBuilderSnapshot(bus_, bytes), Atoms(),
                   {.num_threads = 1});
  }

  protocols::TokenBusSystem bus_{3, 3};
};

std::vector<std::string> Keys(const std::string& response) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : json::Parse(response).members)
    keys.push_back(key);
  return keys;
}

TEST_F(SessionTest, PingAndQuit) {
  Session session = CappedSession();
  EXPECT_EQ(session.Handle(R"({"op":"ping"})"),
            R"({"ok":true,"v":3,"op":"ping"})");
  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.Handle(R"({"op":"quit","id":"bye"})"),
            R"({"ok":true,"v":3,"op":"quit","id":"bye"})");
  EXPECT_TRUE(session.done());
  EXPECT_EQ(session.requests(), 2u);
}

TEST_F(SessionTest, CheckResponses) {
  Session session = CappedSession();
  EXPECT_EQ(session.Handle(R"({"op":"check","formula":"K{0} token_at_p0"})"),
            R"({"ok":true,"v":3,"op":"check","classes":7,"count":2,)"
            R"("hash":"ed3a3c8c2a52f1c0"})");
  EXPECT_EQ(session.Handle(R"({"op":"check","formula":"K{0} token_at_p0",)"
                           R"("ids":true})"),
            R"({"ok":true,"v":3,"op":"check","classes":7,"count":2,)"
            R"("hash":"ed3a3c8c2a52f1c0","satisfying":[0,5]})");
  EXPECT_EQ(session.Handle(R"({"op":"check","formulas":["K{0} token_at_p0",)"
                           R"("K{1} token_at_p0"],"id":"b"})"),
            R"({"ok":true,"v":3,"op":"check","classes":7,"results":[)"
            R"({"count":2,"hash":"ed3a3c8c2a52f1c0"},)"
            R"({"count":0,"hash":"cbf29ce484222325"}],"id":"b"})");
  EXPECT_EQ(session.Handle(R"({"op":"check","formulas":["K{0} token_at_p0"],)"
                           R"("ids":true})"),
            R"({"ok":true,"v":3,"op":"check","classes":7,"results":[)"
            R"({"count":2,"hash":"ed3a3c8c2a52f1c0","satisfying":[0,5]}]})");
  EXPECT_EQ(session.Handle(R"({"op":"check","formulas":[]})"),
            R"({"ok":false,"v":3,"error":"\"formulas\" must be a non-empty )"
            R"(array of strings"})");
}

TEST_F(SessionTest, CheckAtResponses) {
  Session session = CappedSession();
  EXPECT_EQ(session.Handle(R"({"op":"check-at","formula":"token_at_p1",)"
                           R"("at":"0>1:0/token 1<0:0/token","id":"ca"})"),
            R"({"ok":true,"v":3,"op":"check-at","verdict":true,"class":2,)"
            R"("id":"ca"})");
  EXPECT_EQ(session.Handle(R"({"op":"check-at","formula":"token_at_p1",)"
                           R"("at":"0>1:0/token 1<0:0/token 1>2:1/token )"
                           R"(2<1:1/token 2>0:2/token"})"),
            R"({"ok":false,"v":3,"error":"computation has 5 events but the )"
            R"(space is only built to depth 4 (send {\"op\":\"deepen\"} or )"
            R"j(re-serve with a larger --max-depth)"})j");
}

TEST_F(SessionTest, DeepenCappedThenComplete) {
  Session session = CappedSession();
  EXPECT_EQ(session.Handle(R"({"op":"deepen","id":"d1"})"),
            R"({"ok":true,"v":3,"op":"deepen","added":2,"classes":9,)"
            R"("built_depth":5,"complete":false,"id":"d1"})");
  EXPECT_EQ(session.Handle(R"({"op":"deepen","levels":10})"),
            R"({"ok":true,"v":3,"op":"deepen","added":2,"classes":11,)"
            R"("built_depth":6,"complete":true})");
  EXPECT_EQ(session.Handle(R"({"op":"deepen","levels":0})"),
            R"({"ok":false,"v":3,"error":"\"levels\" must be an integer in )"
            R"([1, 65535]"})");
  // The warm evaluator answers over the grown space.
  EXPECT_EQ(session.Handle(R"({"op":"check","formula":"K{0} token_at_p0"})"),
            R"({"ok":true,"v":3,"op":"check","classes":11,"count":2,)"
            R"("hash":"ed3a3c8c2a52f1c0"})");
}

TEST_F(SessionTest, FailedDeepenLeavesTheSessionAsItWas) {
  // token_bus(n=4,passes=6) capped at depth 10 (39 classes) and served
  // without allow_truncation: deepening one level mints level 11, finds it
  // still extendable and throws.  The failed call must leave the space, the
  // frontier and every answer as a session that never sent it has them (a
  // half-grown space used to crash the next check).
  const protocols::TokenBusSystem bus(4, 6);
  EnumerationLimits limits = Capped();
  limits.max_depth = 10;
  std::stringstream bytes;
  {
    SpaceBuilder capped;
    capped.Build(bus, limits);
    SaveSpaceBuilderSnapshot(capped, bytes);
  }
  limits.allow_truncation = false;
  const auto serve = [&] {
    std::vector<Predicate> atoms;
    for (ProcessId p = 0; p < 4; ++p) atoms.push_back(bus.HoldsToken(p));
    std::istringstream in(bytes.str());
    return Session(LoadSpaceBuilderSnapshot(bus, in, limits), std::move(atoms),
                   {.num_threads = 1});
  };
  const std::vector<std::string> requests = {
      R"({"op":"check","formula":"K{1} token_at_p1","ids":true})",
      R"({"op":"check","formulas":["K{0,1} token_at_p0","M{2} token_at_p2"]})",
      R"({"op":"check-at","formula":"K{1} token_at_p1",)"
      R"("at":"0>1:0/token 1<0:0/token"})",
      R"({"op":"info"})"};
  // Responses minus info's running request counter (its last field).
  const auto answer = [](Session& session, const std::string& request) {
    std::string response = session.Handle(request);
    const std::size_t at = response.find(R"(,"requests":)");
    if (at != std::string::npos) response.erase(at, response.size() - 1 - at);
    return response;
  };
  Session untouched = serve();
  Session session = serve();
  const std::string failed = session.Handle(R"({"op":"deepen"})");
  EXPECT_NE(failed.find(R"("ok":false)"), std::string::npos) << failed;
  EXPECT_NE(failed.find("still extendable at max_depth=11"), std::string::npos)
      << failed;
  for (const std::string& request : requests)
    EXPECT_EQ(answer(session, request), answer(untouched, request)) << request;

  // Deepening past the last level never meets the cap, and lands on the
  // space a fresh enumeration builds.
  EXPECT_EQ(session.Handle(R"({"op":"deepen","levels":10})"),
            R"({"ok":true,"v":3,"op":"deepen","added":26,"classes":65,)"
            R"("built_depth":12,"complete":true})");
  std::stringstream grown, fresh;
  SaveSpaceSnapshot(session.builder().space(), grown);
  const ComputationSpace full =
      ComputationSpace::Enumerate(bus, {.num_threads = 1});
  full.EnsureGroupIndex(ProcessSet{0, 1});  // the K{0,1} query built it
  SaveSpaceSnapshot(full, fresh);
  EXPECT_EQ(grown.str(), fresh.str());
}

TEST_F(SessionTest, DeepenSealedIsAnError) {
  Session session = SealedSession();
  const std::string line = session.Handle(R"({"op":"deepen","id":7})");
  EXPECT_EQ(Keys(line), (std::vector<std::string>{"ok", "v", "error", "id"}));
  const json::Value response = json::Parse(line);
  EXPECT_FALSE(response.Find("ok")->boolean);
  EXPECT_NE(response.Find("error")->string.find("sealed"), std::string::npos)
      << response.Find("error")->string;
  EXPECT_FALSE(session.done());
}

TEST_F(SessionTest, UnknownOpListsTheTable) {
  Session session = CappedSession();
  EXPECT_EQ(session.Handle(R"({"op":"frobnicate","id":3})"),
            R"({"ok":false,"v":3,"error":"unknown op 'frobnicate' (check, )"
            R"j(check-at, deepen, info, ping, quit, residency)",)j"
            R"("unknown_op":"frobnicate","id":3})");
}

TEST_F(SessionTest, IdEcho) {
  Session session = CappedSession();
  EXPECT_EQ(session.Handle(R"({"op":"ping","id":"a\"b\\c"})"),
            R"({"ok":true,"v":3,"op":"ping","id":"a\"b\\c"})");
  EXPECT_EQ(session.Handle(R"({"op":"ping","id":-17})"),
            R"({"ok":true,"v":3,"op":"ping","id":-17})");
  EXPECT_EQ(session.Handle(R"({"op":"ping","id":2.5})"),
            R"({"ok":true,"v":3,"op":"ping","id":2.5})");
  EXPECT_EQ(session.Handle(R"({"op":"ping","id":0.1})"),
            R"({"ok":true,"v":3,"op":"ping","id":0.10000000000000001})");
  EXPECT_EQ(session.Handle(R"({"op":"ping","id":1e300})"),
            R"({"ok":true,"v":3,"op":"ping","id":1.0000000000000001e+300})");
  // Only strings and numbers echo; the error itself then carries no id.
  EXPECT_EQ(session.Handle(R"({"op":"ping","id":{"a":1}})"),
            R"({"ok":false,"v":3,"error":"\"id\" must be a string or a )"
            R"(number"})");
  // Errors after the id parsed still echo it.
  EXPECT_EQ(session.Handle(R"({"op":"check","id":"e"})"),
            R"({"ok":false,"v":3,"error":"request needs a string field )"
            R"(\"formula\"","id":"e"})");
}

TEST_F(SessionTest, MalformedRequests) {
  Session session = CappedSession();
  EXPECT_EQ(session.Handle("[1,2,3]"),
            R"({"ok":false,"v":3,"error":"request must be a JSON object"})");
  EXPECT_EQ(session.Handle("this is not json"),
            R"({"ok":false,"v":3,"error":"bad JSON: unexpected character )"
            R"('t' at offset 0"})");
  EXPECT_EQ(session.Handle(R"({"op":"ping"} x)"),
            R"({"ok":false,"v":3,"error":"bad JSON: trailing characters )"
            R"(after value"})");
  EXPECT_EQ(session.Handle(R"({"id":"n"})"),
            R"({"ok":false,"v":3,"error":"request needs a string field )"
            R"(\"op\"","id":"n"})");
  EXPECT_EQ(session.Handle(std::string(100000, '[')),
            R"({"ok":false,"v":3,"error":"bad JSON: nesting deeper than 64 )"
            R"(levels"})");
  EXPECT_EQ(session.Handle(R"({"op":"check","formula":")" +
                           std::string(100000, '!') + R"(token_at_p0"})"),
            R"({"ok":false,"v":3,"error":"Formula parse: formula deeper )"
            R"(than the limit of 1000 levels"})");
  std::string chain = "token_at_p0";
  for (int i = 0; i < 100000; ++i) chain += " && token_at_p0";
  EXPECT_EQ(session.Handle(R"({"op":"check","formula":")" + chain + R"("})"),
            R"({"ok":false,"v":3,"error":"Formula parse: formula deeper )"
            R"(than the limit of 1000 levels"})");
  // None of it stopped the session; only well-formed ops count.
  EXPECT_EQ(session.Handle(R"({"op":"ping"})"),
            R"({"ok":true,"v":3,"op":"ping"})");
  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.requests(), 3u);
}

TEST_F(SessionTest, InfoAndResidencyKeyOrder) {
  Session session = CappedSession();
  EXPECT_EQ(Keys(session.Handle(R"({"op":"info","id":1})")),
            (std::vector<std::string>{
                "ok", "v", "op", "system", "classes", "truncated",
                "built_depth", "deepenable", "memo_entries", "bytes_memo",
                "formulas_interned", "kernel_programs", "kernel_ops",
                "bytes_kernel", "out_of_core", "segments",
                "segments_resident", "segments_spilled", "bytes_resident",
                "bytes_mapped", "bytes_spilled", "requests", "id"}));
  EXPECT_EQ(Keys(session.Handle(R"({"op":"residency"})")),
            (std::vector<std::string>{
                "ok", "v", "op", "out_of_core", "budget_bytes",
                "segment_shift", "segments", "segments_resident",
                "segments_mapped", "segments_spilled", "bytes_resident",
                "bytes_mapped", "bytes_spilled", "spill_faults",
                "spill_writes"}));
}

TEST_F(SessionTest, RunAnswersLineByLineUntilQuit) {
  Session session = CappedSession();
  std::istringstream in(
      "{\"op\":\"ping\",\"id\":1}\n\n   \n[\n{\"op\":\"quit\"}\n"
      "{\"op\":\"ping\"}\n");
  std::ostringstream out;
  EXPECT_EQ(serve::Run(session, in, out), 2u);
  EXPECT_EQ(out.str(),
            "{\"ok\":true,\"v\":3,\"op\":\"ping\",\"id\":1}\n"
            "{\"ok\":false,\"v\":3,\"error\":\"bad JSON: unexpected end\"}\n"
            "{\"ok\":true,\"v\":3,\"op\":\"quit\"}\n");
}

TEST(JsonCodecTest, EscapeRoundTrips) {
  const std::string raw = "q\"b\\n\nr\rt\t\x01/";
  EXPECT_EQ(json::Escape(raw), R"(q\"b\\n\nr\rt\t\u0001/)");
  EXPECT_EQ(json::Parse("\"" + json::Escape(raw) + "\"").string, raw);
  EXPECT_EQ(json::Parse(R"("A\/\b\f")").string, "A/\b\f");
}

TEST(JsonCodecTest, ParsesEveryValueKind) {
  const json::Value v =
      json::Parse(R"( {"a":[1,-2.5e3,true,false,null],"b":{},"a":"x"} )");
  ASSERT_EQ(v.type, json::Value::Type::kObject);
  ASSERT_EQ(v.members.size(), 3u);  // duplicates kept, in document order
  const json::Value& a = *v.Find("a");
  ASSERT_EQ(a.array.size(), 5u);
  EXPECT_EQ(a.array[1].number, -2500.0);
  EXPECT_TRUE(a.array[2].boolean);
  EXPECT_EQ(a.array[4].type, json::Value::Type::kNull);
  EXPECT_EQ(v.Find("b")->type, json::Value::Type::kObject);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonCodecTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", R"({"a" 1})", R"("\u00e9")", R"("\u12")",
        R"("\q")", "\"a\x01\"", "1 2", R"({"a":1} x)", "tru", "-"}) {
    EXPECT_THROW(json::Parse(bad), std::runtime_error) << bad;
  }
}

TEST(JsonCodecTest, NestingCap) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(json::Parse(nested(json::kMaxDepth)));
  try {
    json::Parse(nested(json::kMaxDepth + 1));
    ADD_FAILURE() << "nesting past the cap parsed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("64"), std::string::npos);
  }
}

}  // namespace
}  // namespace hpl::serve
