// Contract-macro and ContractError-path coverage: message formatting,
// transport preconditions, accounting invariants, and the Trace bounds
// checks.
#include <gtest/gtest.h>

#include <string>

#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "support/check.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(ContractError, RequireFormatsExpressionFileAndStreamedMessage) {
  try {
    const int got = 42;
    PUP_REQUIRE(got < 10, "got " << got << " elements");
    FAIL() << "PUP_REQUIRE did not throw";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_TRUE(contains(what, "precondition failed")) << what;
    EXPECT_TRUE(contains(what, "(got < 10)")) << what;
    EXPECT_TRUE(contains(what, "contract_error_test.cpp")) << what;
    EXPECT_TRUE(contains(what, "got 42 elements")) << what;
  }
}

TEST(ContractError, CheckFormatsAsInvariant) {
  try {
    PUP_CHECK(false, "state " << 'x');
    FAIL() << "PUP_CHECK did not throw";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_TRUE(contains(what, "invariant failed")) << what;
    EXPECT_TRUE(contains(what, "state x")) << what;
  }
}

TEST(ContractError, DcheckFollowsBuildType) {
#ifdef NDEBUG
  EXPECT_NO_THROW(PUP_DCHECK(false, "compiled out in NDEBUG builds"));
#else
  EXPECT_THROW(PUP_DCHECK(false, "active in debug builds"), ContractError);
#endif
}

TEST(ContractError, IsALogicError) {
  EXPECT_THROW(PUP_CHECK(false, ""), std::logic_error);
}

TEST(ContractError, ReceiveRequiredOnEmptyMailboxThrows) {
  auto machine = test::make_machine(2, test::test_options({10.0, 0.05}));
  EXPECT_THROW((void)machine.receive_required(0), ContractError);
  EXPECT_THROW((void)machine.receive_required(1, 0, 7), ContractError);
  // The non-throwing probe stays silent on the same empty mailbox.
  EXPECT_FALSE(machine.receive(0).has_value());
  EXPECT_FALSE(machine.has_message(1, 0, 7));
}

TEST(ContractError, ResetAccountingWithQueuedMessageThrows) {
  auto machine = test::make_machine(2, test::test_options({10.0, 0.05}));
  machine.post(sim::Message{0, 1, 3, std::vector<std::byte>(8)},
               sim::Category::kM2M);
  EXPECT_FALSE(machine.mailboxes_empty());
  EXPECT_THROW(machine.reset_accounting(), ContractError);

  // Draining the mailbox makes reset legal again.
  (void)machine.receive_required(1, 0, 3);
  EXPECT_TRUE(machine.mailboxes_empty());
  EXPECT_NO_THROW(machine.reset_accounting());
  EXPECT_EQ(machine.trace().messages(), 0);
}

TEST(ContractError, TraceRejectsOutOfRangeCategory) {
  sim::Trace trace(2);
  const auto bad = static_cast<sim::Category>(99);
  EXPECT_THROW(trace.record_message(0, 1, 16, bad), ContractError);
  EXPECT_THROW((void)trace.messages_in(bad), ContractError);
  EXPECT_THROW((void)trace.bytes_in(bad), ContractError);
  EXPECT_THROW((void)trace.messages_in(static_cast<sim::Category>(-1)),
               ContractError);
  // Nothing was recorded by the rejected calls.
  EXPECT_EQ(trace.messages(), 0);
  EXPECT_EQ(trace.bytes(), 0);
}

TEST(ContractError, TraceRejectsOutOfRangeRank) {
  sim::Trace trace(2);
  EXPECT_THROW(trace.record_message(-1, 0, 4, sim::Category::kM2M),
               ContractError);
  EXPECT_THROW(trace.record_message(0, 2, 4, sim::Category::kM2M),
               ContractError);
  EXPECT_THROW((void)trace.sent_bytes(2), ContractError);
  EXPECT_THROW((void)trace.recv_bytes(-1), ContractError);

  trace.record_message(0, 1, 4, sim::Category::kM2M);
  EXPECT_EQ(trace.messages(), 1);
  EXPECT_EQ(trace.sent_bytes(0), 4);
  EXPECT_EQ(trace.recv_bytes(1), 4);
}

}  // namespace
}  // namespace pup
