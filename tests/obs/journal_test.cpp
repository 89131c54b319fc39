#include "src/obs/journal.hpp"

#include <gtest/gtest.h>

namespace rasc::obs {
namespace {

TEST(EventJournal, AppendsAndReadsBackOldestFirst) {
  EventJournal journal(8);
  const std::uint32_t actor = journal.intern("prv-0");
  for (std::uint64_t i = 0; i < 5; ++i) {
    journal.append(i * 10, actor, 1, 1, JournalEventKind::kLinkSend, i, 64);
  }
  ASSERT_EQ(journal.size(), 5u);
  EXPECT_EQ(journal.appended(), 5u);
  EXPECT_EQ(journal.dropped(), 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(journal.at(i).time, i * 10);
    EXPECT_EQ(journal.at(i).a, i);
  }
}

TEST(EventJournal, RingOverwritesOldestWhenFull) {
  EventJournal journal(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    journal.append(i, 0, 0, 0, JournalEventKind::kLinkSend, i, 0);
  }
  ASSERT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.appended(), 10u);
  EXPECT_EQ(journal.dropped(), 6u);
  // Survivors are the newest four, oldest first.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(journal.at(i).a, 6 + i);
}

TEST(EventJournal, InternAssignsIdsInFirstInternOrder) {
  EventJournal journal;
  EXPECT_EQ(journal.intern("vrf->prv"), 1u);
  EXPECT_EQ(journal.intern("prv->vrf"), 2u);
  EXPECT_EQ(journal.intern("vrf->prv"), 1u);  // pure lookup
  EXPECT_EQ(journal.actor_name(1), "vrf->prv");
  EXPECT_EQ(journal.actor_name(0), "?");
}

TEST(EventJournal, AppendDoesNotAllocate) {
  // The ring is fully preallocated: capacity is fixed at construction and
  // an append touches only POD slots (enforced by static_assert on
  // JournalEvent; here we check the ring never grows).
  EventJournal journal(16);
  const std::size_t cap = journal.capacity();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    journal.append(i, 1, 0, 0, JournalEventKind::kCacheHit, i, 0);
  }
  EXPECT_EQ(journal.capacity(), cap);
  EXPECT_EQ(journal.size(), cap);
}

TEST(EventJournal, FilterSelectsConjunctively) {
  EventJournal journal;
  const std::uint32_t link = journal.intern("net");
  const std::uint32_t dev = journal.intern("prv-0");
  journal.append(10, link, 0, 0, JournalEventKind::kLinkSend, 1, 0);
  journal.append(20, link, 0, 0, JournalEventKind::kLinkDrop, 1, 0);
  journal.append(30, dev, 1, 7, JournalEventKind::kSessionAttempt, 1, 0);
  journal.append(40, dev, 1, 7, JournalEventKind::kSessionResolved, 0, 0);

  JournalFilter by_kind;
  by_kind.kind = JournalEventKind::kLinkDrop;
  EXPECT_EQ(journal.count(by_kind), 1u);

  JournalFilter by_round;
  by_round.session = 1;
  by_round.round = 7;
  EXPECT_EQ(journal.count(by_round), 2u);

  JournalFilter by_window;
  by_window.t_min = 15;
  by_window.t_max = 30;
  const auto window = journal.select(by_window);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].time, 20u);
  EXPECT_EQ(window[1].time, 30u);

  JournalFilter none;
  none.actor = 99;
  EXPECT_FALSE(journal.first(none).has_value());
  JournalFilter first_dev;
  first_dev.actor = dev;
  ASSERT_TRUE(journal.first(first_dev).has_value());
  EXPECT_EQ(journal.first(first_dev)->time, 30u);
}

TEST(EventJournal, NdjsonHasFixedKeyOrderAndIsDeterministic) {
  const auto build = [] {
    EventJournal journal;
    const std::uint32_t actor = journal.intern("prv-0");
    journal.append(1500, actor, 2, 3, JournalEventKind::kSessionAttempt, 1, 42);
    journal.append(2500, actor, 2, 3, JournalEventKind::kSessionResolved, 0, 9);
    return journal.to_ndjson();
  };
  const std::string ndjson = build();
  EXPECT_EQ(ndjson,
            "{\"t\":1500,\"actor\":\"prv-0\",\"kind\":\"session.attempt\","
            "\"session\":2,\"round\":3,\"a\":1,\"b\":42}\n"
            "{\"t\":2500,\"actor\":\"prv-0\",\"kind\":\"session.resolved\","
            "\"session\":2,\"round\":3,\"a\":0,\"b\":9}\n");
  EXPECT_EQ(build(), ndjson);  // byte-identical on rebuild
}

TEST(EventJournal, ClearResetsContentsAndCounters) {
  EventJournal journal(4);
  for (int i = 0; i < 6; ++i) {
    journal.append(i, 0, 0, 0, JournalEventKind::kLinkSend);
  }
  journal.clear();
  EXPECT_TRUE(journal.empty());
  EXPECT_EQ(journal.appended(), 0u);
  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_EQ(journal.capacity(), 4u);
}

TEST(EventJournal, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(JournalEventKind::kSmarmRound); ++k) {
    const auto name = journal_event_kind_name(static_cast<JournalEventKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "kind " << k;
  }
}

TEST(ActorId, CachesPerJournal) {
  EventJournal a;
  EventJournal b;
  (void)a.intern("other");  // shift ids so a and b disagree
  ActorId cached;
  EXPECT_EQ(cached.get(a, "prv"), 2u);
  EXPECT_EQ(cached.get(a, "prv"), 2u);
  EXPECT_EQ(cached.get(b, "prv"), 1u);  // re-interned on journal change
}

}  // namespace
}  // namespace rasc::obs
