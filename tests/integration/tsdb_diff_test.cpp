// Differential equivalence suite for the sharded TSDB.
//
// The sharding contract is strong: for ANY query, an N-shard database fed
// the same ingest must return bit-identical results to a 1-shard database
// — not approximately equal, identical to the last mantissa bit. This
// holds because both aggregates fold order-independently (sum is additive
// over integer-valued samples, max is a lattice join) and shards fold in
// shard order.
//
// The suite generates hundreds of seeded random queries over a seeded
// random ingest and compares 1-shard reference results against 2/4/8-shard
// stores, covering: MAX and SUM, with and without `value <> 0`, window
// edges on sample instants (now() anchored on whole seconds), wide windows
// next to narrow ones, tag grouping, the nested Listing-1 shape, and
// post-retention horizons.
// A churn phase checks the stores against a brute-force fold over the
// recorded writes as well, since cross-shard agreement cannot catch a flaw
// every store shares, and another checks newest_time against the points
// left visible.
// Every statement the suite runs is also read through the fold-order
// read-out (PreparedQuery::for_each_group), which must give execute()'s
// groups, and a churn phase on every shard count, under stale-read
// horizons, checks it and ClusterMetrics' per-pod reads against the rows
// of the statements they run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "core/metrics_view.hpp"
#include "tsdb/model.hpp"
#include "tsdb/ql/executor.hpp"
#include "tsdb/ql/prepared.hpp"

namespace sgxo::tsdb {
namespace {

/// Freezes every shard's reads at `horizon` (nullopt thaws them).
void set_read_horizons(Database& db, std::optional<TimePoint> horizon) {
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    db.set_shard_read_horizon(s, horizon);
  }
}

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Bit-exact result comparison: same rows, same order, same tags, same
/// times, and field doubles identical at the representation level.
void expect_bit_identical(const ql::ResultSet& want, const ql::ResultSet& got,
                          const std::string& context) {
  ASSERT_EQ(want.rows.size(), got.rows.size()) << context;
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const ql::Row& a = want.rows[i];
    const ql::Row& b = got.rows[i];
    EXPECT_EQ(a.tags, b.tags) << context << " row " << i;
    EXPECT_EQ(a.time.micros_since_epoch(), b.time.micros_since_epoch())
        << context << " row " << i;
    ASSERT_EQ(a.fields.size(), b.fields.size()) << context << " row " << i;
    auto ita = a.fields.begin();
    auto itb = b.fields.begin();
    for (; ita != a.fields.end(); ++ita, ++itb) {
      EXPECT_EQ(ita->first, itb->first) << context << " row " << i;
      EXPECT_EQ(bits_of(ita->second), bits_of(itb->second))
          << context << " row " << i << " field " << ita->first << " ("
          << ita->second << " vs " << itb->second << ")";
    }
  }
}

/// One group as (GROUP BY tags, time, value bits): the read-out and
/// execute() are compared as sorted lists of these, since only their
/// order may differ.
using GroupEntry = std::tuple<Tags, std::int64_t, std::uint64_t>;

/// execute()'s rows as group entries; every row carries one field.
std::vector<GroupEntry> entries_of(const ql::ResultSet& result) {
  std::vector<GroupEntry> entries;
  for (const ql::Row& row : result.rows) {
    EXPECT_EQ(row.fields.size(), 1u);
    entries.emplace_back(row.tags, row.time.micros_since_epoch(),
                         bits_of(row.fields.begin()->second));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

/// The fold-order read-out as group entries: each group's creating tag
/// set cut to the GROUP BY tags, a missing tag reading as "".
std::vector<GroupEntry> read_out(const ql::PreparedQuery& query,
                                 const Database& db, TimePoint now,
                                 ql::ExecStats* stats) {
  std::vector<GroupEntry> entries;
  query.for_each_group(
      db, now,
      [&](const Tags& tags, TimePoint time, double value) {
        Tags group;
        for (const std::string& name : query.stmt().group_by) {
          const auto it = tags.find(name);
          group.emplace(name, it == tags.end() ? "" : it->second);
        }
        entries.emplace_back(std::move(group), time.micros_since_epoch(),
                             bits_of(value));
      },
      stats);
  std::sort(entries.begin(), entries.end());
  return entries;
}

/// The read-out gives the groups execute() gives: the same GROUP BY tags,
/// times and value bits, as multisets, from the same series and points.
void expect_read_out_matches(const ql::PreparedQuery& query,
                             const Database& db, TimePoint now,
                             const std::string& context) {
  ql::ExecStats executed;
  ql::ExecStats read;
  const std::vector<GroupEntry> want =
      entries_of(query.execute(db, now, &executed));
  const std::string where = context + " read-out [" +
                            std::to_string(db.shard_count()) + " shards] " +
                            query.text();
  EXPECT_EQ(want, read_out(query, db, now, &read)) << where;
  EXPECT_EQ(executed.series, read.series) << where;
  EXPECT_EQ(executed.points, read.points) << where;
}

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

/// One ingest realization shared by all shard counts: integer-valued
/// samples (double sums stay exact in any order) and an hour of history
/// at 5 s cadence.
struct StoreSet {
  std::vector<std::unique_ptr<Database>> stores;

  explicit StoreSet(std::uint64_t seed) {
    for (const std::size_t shards : kShardCounts) {
      stores.push_back(std::make_unique<Database>(shards));
    }
    Rng rng{seed};
    const int pods = static_cast<int>(rng.uniform_int(6, 12));
    const int nodes = static_cast<int>(rng.uniform_int(2, 4));
    for (int p = 0; p < pods; ++p) {
      const Tags tags{{"pod_name", "p" + std::to_string(p)},
                      {"nodename", "n" + std::to_string(p % nodes)}};
      // Deterministic per-pod phase so series don't all start on the
      // same instant; values are small integers, occasionally zero so
      // `value <> 0` predicates actually filter.
      const std::int64_t phase = rng.uniform_int(0, 4);
      for (std::int64_t t = phase; t <= 3600; t += 5) {
        const double value = static_cast<double>(rng.uniform_int(0, 500));
        for (auto& db : stores) {
          db->write("sgx/epc", tags, at(t), value);
        }
      }
    }
    // A second measurement exercises the multi-measurement shard map.
    for (std::int64_t t = 0; t <= 3600; t += 10) {
      const double value = static_cast<double>(rng.uniform_int(1, 1000));
      for (auto& db : stores) {
        db->write("memory/usage", {{"pod_name", "p0"}}, at(t), value);
      }
    }
  }

  Database& reference() { return *stores[0]; }
};

/// Seeded query generator over the grammar the executor supports. The
/// windows run from the scheduler's 25 s to the whole hour of history.
std::string random_query(Rng& rng) {
  static const std::int64_t kWindows[] = {25, 90, 200, 480, 1200, 3600};

  const std::string agg = rng.bernoulli(0.5) ? "MAX" : "SUM";
  const std::int64_t window =
      kWindows[static_cast<std::size_t>(rng.uniform_int(0, 5))];

  if (rng.bernoulli(0.25)) {
    // The paper's Listing-1 shape: per-pod max rolled up per node.
    return "SELECT SUM(epc) AS epc FROM "
           "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
           "WHERE value <> 0 AND time >= now() - " +
           std::to_string(window) +
           "s GROUP BY pod_name, nodename) GROUP BY nodename";
  }

  std::string text = "SELECT " + agg + "(value) AS v FROM \"sgx/epc\" WHERE ";
  if (rng.bernoulli(0.3)) text += "value <> 0 AND ";
  text += "time >= now() - " + std::to_string(window) + "s";

  std::vector<std::string> group;
  if (rng.bernoulli(0.5)) group.push_back("pod_name");
  if (rng.bernoulli(0.3)) group.push_back("nodename");
  if (!group.empty()) {
    text += " GROUP BY " + group[0];
    for (std::size_t i = 1; i < group.size(); ++i) text += ", " + group[i];
  }
  return text;
}

/// Runs `text` on every store and checks the N-shard results against the
/// 1-shard reference.
void check_query(StoreSet& set, const std::string& text, TimePoint now,
                 const std::string& context) {
  const ql::PreparedQuery prepared = ql::PreparedQuery::prepare(text);
  const ql::ResultSet want = prepared.execute(set.reference(), now);
  for (std::size_t i = 1; i < set.stores.size(); ++i) {
    Database& db = *set.stores[i];
    expect_bit_identical(
        want, prepared.execute(db, now),
        context + " [" + std::to_string(db.shard_count()) + " shards] " +
            text);
  }
  for (const auto& db : set.stores) {
    expect_read_out_matches(prepared, *db, now, context);
  }
}

class TsdbDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

/// A now() anchor for one generated query: a whole second in the last
/// half hour of history. Pods sample on whole seconds, so the window,
/// which starts a whole number of seconds earlier, starts on the sample
/// instant of every pod whose phase matches; an anchor before the newest
/// sample folds the samples after it too.
TimePoint random_anchor(Rng& rng) { return at(rng.uniform_int(1800, 3600)); }

TEST_P(TsdbDiffTest, GeneratedQueriesAreBitIdenticalAcrossShardCounts) {
  const std::uint64_t seed = GetParam();
  StoreSet set{seed};
  Rng rng{seed * 7919 + 1};
  for (int i = 0; i < 30; ++i) {
    // The query is drawn before its anchor: the order in which a call's
    // arguments are evaluated is unspecified.
    const std::string text = random_query(rng);
    check_query(set, text, random_anchor(rng),
                "seed=" + std::to_string(seed) + " q=" + std::to_string(i));
  }
}

TEST_P(TsdbDiffTest, EquivalenceHoldsAfterRetention) {
  const std::uint64_t seed = GetParam();
  StoreSet set{seed};
  // Age the stores: drop everything older than 20 minutes. All stores
  // must cut at the same horizon.
  for (auto& db : set.stores) {
    db->enforce_retention(at(3600), Duration::minutes(20));
  }
  Rng rng{seed * 104729 + 3};
  for (int i = 0; i < 12; ++i) {
    const std::string text = random_query(rng);
    check_query(set, text, random_anchor(rng),
                "post-retention seed=" + std::to_string(seed) +
                    " q=" + std::to_string(i));
  }
  // Windows reaching past the horizon see exactly the surviving points.
  check_query(set, "SELECT SUM(value) AS n FROM \"sgx/epc\"", at(3600),
              "post-retention full scan seed=" + std::to_string(seed));
}

// --- Independent oracle: churn, retention and late writes ---------------
//
// Every store shares the cold-series skip and the erase-at-retention rule,
// so comparing shard counts with each other cannot catch a wrong skip.
// This phase checks the stores against a brute-force fold over the
// recorded writes instead, while pods come and go, retention erases their
// series, and late samples recreate some of them.

/// Every accepted write, and whether retention has dropped it yet.
class WriteLog {
 public:
  void write(const Tags& tags, std::int64_t time_us, double value) {
    writes_.push_back({tags, time_us, value, true});
  }

  /// Database::enforce_retention drops raw points strictly older than the
  /// horizon; a write that arrives later stays until the next call.
  void retain(std::int64_t horizon_us) {
    for (Entry& entry : writes_) {
      if (entry.time_us < horizon_us) entry.alive = false;
    }
  }

  [[nodiscard]] std::size_t live_points() const {
    return static_cast<std::size_t>(std::count_if(
        writes_.begin(), writes_.end(),
        [](const Entry& entry) { return entry.alive; }));
  }

  /// Distinct tag sets among the live writes.
  [[nodiscard]] std::size_t live_series() const {
    std::set<Tags> tag_sets;
    for (const Entry& entry : writes_) {
      if (entry.alive) tag_sets.insert(entry.tags);
    }
    return tag_sets.size();
  }

  [[nodiscard]] std::optional<TimePoint> newest() const {
    std::optional<TimePoint> newest;
    for (const Entry& entry : writes_) {
      const TimePoint t = TimePoint::from_micros(entry.time_us);
      if (entry.alive && (!newest.has_value() || t > *newest)) newest = t;
    }
    return newest;
  }

  /// MAX or SUM, as field `field`, of the live points at or after lo
  /// grouped by `group_by`, rows in tags_key order, row time = earliest
  /// point.
  [[nodiscard]] ql::ResultSet fold(ql::Aggregate agg, const std::string& field,
                                   std::int64_t lo, bool nonzero_only,
                                   const std::vector<std::string>& group_by)
      const {
    struct Cell {
      Tags tags;
      std::int64_t first_t = 0;
      double value = 0;
    };
    std::map<std::string, Cell> cells;
    for (const Entry& e : writes_) {
      if (!e.alive || e.time_us < lo) continue;
      if (nonzero_only && e.value == 0.0) continue;
      Tags key;
      for (const std::string& tag : group_by) {
        const auto it = e.tags.find(tag);
        key.emplace(tag, it == e.tags.end() ? "" : it->second);
      }
      Cell& c = cells
                    .try_emplace(tags_key(key),
                                 Cell{key, e.time_us,
                                      agg == ql::Aggregate::kMax ? e.value
                                                                 : 0.0})
                    .first->second;
      c.first_t = std::min(c.first_t, e.time_us);
      c.value = agg == ql::Aggregate::kMax ? std::max(c.value, e.value)
                                           : c.value + e.value;
    }
    ql::ResultSet result;
    for (const auto& [key, c] : cells) {
      ql::Row row;
      row.tags = c.tags;
      row.time = TimePoint::from_micros(c.first_t);
      row.fields = {{field, c.value}};
      result.rows.push_back(std::move(row));
    }
    return result;
  }

  /// Paper Listing 1: per-node SUM of the per-pod MAX of nonzero samples.
  [[nodiscard]] ql::ResultSet listing1(std::int64_t lo) const {
    const ql::ResultSet pods = fold(ql::Aggregate::kMax, "hi", lo, true,
                                    {"pod_name", "nodename"});
    std::map<std::string, ql::Row> nodes;
    for (const ql::Row& pod : pods.rows) {
      const std::string& node = pod.tags.at("nodename");
      const auto [it, fresh] = nodes.try_emplace(node);
      ql::Row& row = it->second;
      if (fresh) {
        row.tags = {{"nodename", node}};
        row.time = pod.time;
        row.fields["epc"] = 0.0;
      }
      row.time = std::min(row.time, pod.time);
      row.fields["epc"] += pod.fields.at("hi");
    }
    ql::ResultSet result;
    for (auto& [node, row] : nodes) result.rows.push_back(std::move(row));
    return result;
  }

 private:
  struct Entry {
    Tags tags;
    std::int64_t time_us = 0;
    double value = 0.0;
    bool alive = true;
  };
  std::vector<Entry> writes_;
};

TEST_P(TsdbDiffTest, ChurnRetentionAndLateWritesMatchBruteForceOracle) {
  const std::uint64_t seed = GetParam();
  // The first pair of stores takes the tag write for every sample. The
  // second writes as Heapster and the SGX probe do: through a ref kept per
  // pod, falling back to the tag write, and keeping its ref, once
  // retention has erased the series and staled the ref.
  constexpr std::size_t kTagStores = 2;
  std::vector<std::unique_ptr<Database>> stores;
  for (const std::size_t shards : {1, 4, 1, 4}) {
    stores.push_back(std::make_unique<Database>(shards));
  }
  WriteLog log;

  struct Pod {
    Tags tags;
    std::int64_t end = 0;
    std::array<SeriesRef, 2> refs{};  // one per ref-written store
  };
  std::size_t stale_refs = 0;
  const auto write = [&](Pod& pod, std::int64_t t, double value) {
    for (std::size_t i = 0; i < stores.size(); ++i) {
      Database& db = *stores[i];
      if (i < kTagStores) {
        db.write("sgx/epc", pod.tags, at(t), value);
        continue;
      }
      SeriesRef& ref = pod.refs[i - kTagStores];
      if (db.live(ref)) {
        ASSERT_TRUE(db.write(ref, at(t), value));
        continue;
      }
      if (ref.generation != 0) ++stale_refs;
      const std::optional<SeriesRef> fresh =
          db.write("sgx/epc", pod.tags, at(t), value);
      ASSERT_TRUE(fresh.has_value());
      ref = *fresh;
    }
    log.write(pod.tags, at(t).micros_since_epoch(), value);
  };

  std::vector<Pod> pods;
  Rng rng{seed * 6151 + 11};
  // Checks run on whole minutes, so a retention that is not a whole number
  // of minutes puts the horizon inside a minute: windows reaching past it
  // must fold exactly the points retention kept.
  constexpr std::int64_t kRetentionS = 575;
  for (std::int64_t now = 0; now <= 2400; now += 5) {
    if (rng.bernoulli(0.3)) {
      const std::string name = "p" + std::to_string(pods.size());
      pods.push_back({{{"pod_name", name},
                       {"nodename", "n" + std::to_string(rng.uniform_int(0, 3))}},
                      now + rng.uniform_int(20, 300)});
    }
    for (Pod& pod : pods) {
      if (now <= pod.end) {
        write(pod, now, static_cast<double>(rng.uniform_int(0, 50)));
      }
    }
    // A late sample for some pod, live or long gone: anywhere from just
    // now to past the retention horizon, often into an erased series,
    // whose refs are then stale.
    if (!pods.empty() && rng.bernoulli(0.2)) {
      Pod& pod = pods[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pods.size()) - 1))];
      write(pod, std::max<std::int64_t>(0, now - rng.uniform_int(0, 700)),
            static_cast<double>(rng.uniform_int(1, 50)));
    }
    if (now % 60 != 0) continue;

    for (auto& db : stores) {
      db->enforce_retention(at(now), Duration::seconds(kRetentionS));
    }
    log.retain(at(now - kRetentionS).micros_since_epoch());

    const std::string context =
        "oracle seed=" + std::to_string(seed) + " t=" + std::to_string(now);
    for (const std::int64_t window : {25, 90, 300, 3600}) {
      const std::int64_t lo = at(now - window).micros_since_epoch();
      const ql::PreparedQuery listing1 = ql::PreparedQuery::prepare(
          "SELECT SUM(epc) AS epc FROM (SELECT MAX(value) AS epc FROM "
          "\"sgx/epc\" WHERE value <> 0 AND time >= now() - " +
          std::to_string(window) +
          "s GROUP BY pod_name, nodename) GROUP BY nodename");
      const std::vector<std::pair<std::string, bool>> filters = {
          {"value <> 0 AND ", true}, {"", false}};
      // An anchor 10 s back folds the samples after it as well.
      for (const std::int64_t back : {std::int64_t{0}, std::int64_t{10}}) {
        const std::int64_t start = at(now - back - window).micros_since_epoch();
        for (const auto& [agg, field] :
             {std::pair{ql::Aggregate::kMax, std::string{"hi"}},
              std::pair{ql::Aggregate::kSum, std::string{"s"}}}) {
          for (const auto& [filter, nonzero] : filters) {
            for (const std::vector<std::string>& group_by :
                 {std::vector<std::string>{"pod_name"},
                  std::vector<std::string>{"nodename"},
                  std::vector<std::string>{}}) {
              std::string text = std::string{"SELECT "} + ql::to_string(agg) +
                                 "(value) AS " + field +
                                 " FROM \"sgx/epc\" WHERE " + filter +
                                 "time >= now() - " + std::to_string(window) +
                                 "s";
              if (!group_by.empty()) text += " GROUP BY " + group_by[0];
              const ql::ResultSet want =
                  log.fold(agg, field, start, nonzero, group_by);
              const ql::PreparedQuery query = ql::PreparedQuery::prepare(text);
              for (auto& db : stores) {
                expect_bit_identical(want,
                                     query.execute(*db, at(now - back)),
                                     context + " " + text);
                expect_read_out_matches(query, *db, at(now - back), context);
              }
            }
          }
        }
      }
      for (auto& db : stores) {
        expect_bit_identical(log.listing1(lo), listing1.execute(*db, at(now)),
                             context + " listing1 " + std::to_string(window));
      }
    }
    for (auto& db : stores) {
      const std::optional<TimePoint> newest = db->newest_time("sgx/epc");
      EXPECT_EQ(newest.has_value(), log.newest().has_value()) << context;
      if (newest.has_value() && log.newest().has_value()) {
        EXPECT_EQ(newest->micros_since_epoch(),
                  log.newest()->micros_since_epoch())
            << context;
      }
    }
    // Retention keeps exactly the live points, and a series exactly while
    // it holds one.
    for (auto& db : stores) {
      EXPECT_EQ(db->points_in("sgx/epc"), log.live_points()) << context;
      EXPECT_EQ(db->series_count("sgx/epc"), log.live_series()) << context;
    }
  }
  // Retention really did erase series along the way, and writes met the
  // refs it staled.
  EXPECT_LT(stores[0]->series_count("sgx/epc"), pods.size());
  EXPECT_GT(stale_refs, 0u);
}

// --- newest_time: the staleness probe's answer ----------------------------
//
// Database::newest_time reads each measurement's kept newest point time
// and walks series only on a shard frozen under a read horizon. Check it
// against a brute-force maximum over the points retention has left, each
// cut by its own shard's horizon, while pods churn, late writes land out
// of order, horizons on every shard and on single shards come and go, and
// retention finally drains the store.

TEST_P(TsdbDiffTest, NewestTimeMatchesBruteForceOverVisiblePoints) {
  const std::uint64_t seed = GetParam();
  std::vector<std::unique_ptr<Database>> stores;
  for (const std::size_t shards : {1, 4}) {
    stores.push_back(std::make_unique<Database>(shards));
  }
  struct Write {
    std::int64_t time_us = 0;
    std::size_t shard[2] = {0, 0};  // routed shard in each store
  };
  std::vector<Write> live;  // writes retention has not dropped yet
  const auto write = [&](const Tags& tags, std::int64_t t) {
    Write entry;
    entry.time_us = at(t).micros_since_epoch();
    for (std::size_t i = 0; i < stores.size(); ++i) {
      stores[i]->write("sgx/epc", tags, at(t), 1.0);
      entry.shard[i] = stores[i]->shard_of("sgx/epc", tags);
    }
    live.push_back(entry);
  };
  const auto retain = [&](std::int64_t now, std::int64_t retention) {
    for (auto& db : stores) {
      db->enforce_retention(at(now), Duration::seconds(retention));
    }
    const std::int64_t horizon = at(now - retention).micros_since_epoch();
    std::erase_if(live,
                  [horizon](const Write& w) { return w.time_us < horizon; });
  };
  const auto check = [&](const std::string& context) {
    for (std::size_t i = 0; i < stores.size(); ++i) {
      const Database& db = *stores[i];
      std::optional<std::int64_t> want;
      for (const Write& w : live) {
        const std::optional<TimePoint> horizon =
            db.shard_read_horizon(w.shard[i]);
        if (horizon.has_value() &&
            w.time_us > horizon->micros_since_epoch()) {
          continue;
        }
        if (!want.has_value() || w.time_us > *want) want = w.time_us;
      }
      const std::optional<TimePoint> got = db.newest_time("sgx/epc");
      const std::string where =
          context + " shards=" + std::to_string(db.shard_count());
      ASSERT_EQ(got.has_value(), want.has_value()) << where;
      if (want.has_value()) {
        EXPECT_EQ(got->micros_since_epoch(), *want) << where;
      }
      EXPECT_FALSE(db.newest_time("memory/usage").has_value()) << where;
    }
  };

  struct Pod {
    Tags tags;
    std::int64_t end = 0;
  };
  std::vector<Pod> pods;
  Rng rng{seed * 7919 + 3};
  constexpr std::int64_t kRetentionS = 300;
  std::int64_t now = 0;
  for (; now <= 1800; now += 5) {
    if (rng.bernoulli(0.3)) {
      const std::string name = "p" + std::to_string(pods.size());
      pods.push_back(
          {{{"pod_name", name},
            {"nodename", "n" + std::to_string(rng.uniform_int(0, 3))}},
           now + rng.uniform_int(20, 200)});
    }
    for (const Pod& pod : pods) {
      if (now <= pod.end) write(pod.tags, now);
    }
    // A late sample, out of order and possibly past the retention horizon
    // or into a series retention already erased.
    if (!pods.empty() && rng.bernoulli(0.3)) {
      const Pod& pod = pods[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pods.size()) - 1))];
      write(pod.tags, std::max<std::int64_t>(0, now - rng.uniform_int(0, 400)));
    }
    // Stale reads come and go: on every shard and on single shards.
    if (rng.bernoulli(0.05)) {
      const std::optional<TimePoint> horizon =
          rng.bernoulli(0.5) ? std::optional<TimePoint>{at(
                                   now - rng.uniform_int(0, 200))}
                             : std::nullopt;
      for (auto& db : stores) set_read_horizons(*db, horizon);
    }
    if (rng.bernoulli(0.1)) {
      for (auto& db : stores) {
        const auto shard = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(db->shard_count()) - 1));
        db->set_shard_read_horizon(
            shard, rng.bernoulli(0.6) ? std::optional<TimePoint>{at(
                                            now - rng.uniform_int(0, 200))}
                                      : std::nullopt);
      }
    }
    if (now % 30 == 0) retain(now, kRetentionS);
    check("seed=" + std::to_string(seed) + " t=" + std::to_string(now));
  }

  // Drain: no more writes, and retention passes every point.
  for (auto& db : stores) set_read_horizons(*db, std::nullopt);
  now += kRetentionS;
  retain(now, kRetentionS);
  ASSERT_TRUE(live.empty());
  check("drained");
  for (auto& db : stores) {
    EXPECT_EQ(db->total_points(), 0u);
    EXPECT_FALSE(db->newest_time("sgx/epc").has_value());
  }
  // A write after the drain is the newest point again; a horizon before
  // it hides it.
  write(pods.front().tags, now);
  check("rewritten");
  for (auto& db : stores) set_read_horizons(*db, at(now - 1));
  check("rewritten behind a horizon");
  for (auto& db : stores) {
    EXPECT_FALSE(db->newest_time("sgx/epc").has_value());
  }
}

// --- The fold-order read-out under churn and stale reads ------------------
//
// The scheduler reads Listing 1's inner statement through the read-out
// (ClusterMetrics::epc_per_pod and memory_per_pod), not through execute().
// On every shard count, while pods come and go, late samples land,
// retention erases series and stale-read horizons come and go on every
// shard and on single shards, the read-out of every generated statement
// must give execute()'s groups, and each per-pod read the rows of its
// statement.

/// (pod, node, usage): a per-pod read and its statement's rows are
/// compared as sorted lists of these.
using PodEntry = std::tuple<std::string, std::string, std::uint64_t>;

std::vector<PodEntry> pod_entries_of(
    const std::vector<core::ClusterMetrics::PodUsage>& usages) {
  std::vector<PodEntry> entries;
  for (const core::ClusterMetrics::PodUsage& usage : usages) {
    entries.emplace_back(usage.pod, usage.node, usage.usage.count());
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

/// The rows of a per-pod statement, whose GROUP BY names both tags.
std::vector<PodEntry> pod_entries_of(const ql::ResultSet& result,
                                     const std::string& column) {
  std::vector<PodEntry> entries;
  for (const ql::Row& row : result.rows) {
    entries.emplace_back(row.tags.at("pod_name"), row.tags.at("nodename"),
                         static_cast<std::uint64_t>(row.field(column)));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST_P(TsdbDiffTest, ReadOutMatchesExecuteUnderChurnAndStaleReads) {
  const std::uint64_t seed = GetParam();
  std::vector<std::unique_ptr<Database>> stores;
  for (const std::size_t shards : kShardCounts) {
    stores.push_back(std::make_unique<Database>(shards));
  }
  // Memory series carry Heapster's "type" tag, which no per-pod statement
  // groups by; some pods have a second memory series that differs from
  // the first only there, and so folds into the same group.
  struct Pod {
    Tags epc;
    std::vector<Tags> memory;
    std::int64_t end = 0;
  };
  Rng rng{seed * 3571 + 5};
  const auto write = [&](const Pod& pod, std::int64_t t) {
    const double epc = static_cast<double>(rng.uniform_int(0, 50));
    for (auto& db : stores) db->write("sgx/epc", pod.epc, at(t), epc);
    for (const Tags& tags : pod.memory) {
      const double memory = static_cast<double>(rng.uniform_int(1, 4096));
      for (auto& db : stores) db->write("memory/usage", tags, at(t), memory);
    }
  };

  std::vector<Pod> pods;
  constexpr std::int64_t kRetentionS = 575;
  for (std::int64_t now = 0; now <= 2400; now += 5) {
    if (rng.bernoulli(0.3)) {
      Pod pod;
      pod.epc = {{"pod_name", "p" + std::to_string(pods.size())}};
      // One pod in eight has no node tag, which its groups read as "".
      if (!rng.bernoulli(0.125)) {
        pod.epc.emplace("nodename",
                        "n" + std::to_string(rng.uniform_int(0, 3)));
      }
      Tags memory = pod.epc;
      memory.emplace("type", "pod");
      pod.memory.push_back(memory);
      if (rng.bernoulli(0.25)) {
        memory["type"] = "container";
        pod.memory.push_back(memory);
      }
      pod.end = now + rng.uniform_int(20, 300);
      pods.push_back(std::move(pod));
    }
    for (const Pod& pod : pods) {
      if (now <= pod.end) write(pod, now);
    }
    // A late sample, out of order and possibly past the retention horizon
    // or into a series retention already erased.
    if (!pods.empty() && rng.bernoulli(0.2)) {
      const Pod& pod = pods[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pods.size()) - 1))];
      write(pod, std::max<std::int64_t>(0, now - rng.uniform_int(0, 700)));
    }
    // Stale reads come and go: on every shard and on single shards.
    if (rng.bernoulli(0.05)) {
      const std::optional<TimePoint> horizon =
          rng.bernoulli(0.5) ? std::optional<TimePoint>{at(
                                   now - rng.uniform_int(0, 200))}
                             : std::nullopt;
      for (auto& db : stores) set_read_horizons(*db, horizon);
    }
    if (rng.bernoulli(0.1)) {
      for (auto& db : stores) {
        const auto shard = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(db->shard_count()) - 1));
        db->set_shard_read_horizon(
            shard, rng.bernoulli(0.6) ? std::optional<TimePoint>{at(
                                            now - rng.uniform_int(0, 200))}
                                      : std::nullopt);
      }
    }
    if (now % 60 != 0) continue;

    for (auto& db : stores) {
      db->enforce_retention(at(now), Duration::seconds(kRetentionS));
    }
    const std::string context = "read-out seed=" + std::to_string(seed) +
                                " t=" + std::to_string(now);
    for (int i = 0; i < 4; ++i) {
      const ql::PreparedQuery query =
          ql::PreparedQuery::prepare(random_query(rng));
      for (const auto& db : stores) {
        expect_read_out_matches(query, *db, at(now), context);
      }
    }
    for (const std::int64_t window : {25, 90}) {
      for (const auto& db : stores) {
        const core::ClusterMetrics metrics{*db, Duration::seconds(window)};
        for (const auto& [measurement, column] :
             {std::pair{"sgx/epc", "epc"}, std::pair{"memory/usage", "usage"}}) {
          const std::string text =
              std::string{"SELECT MAX(value) AS "} + column + " FROM \"" +
              measurement + "\" WHERE value <> 0 AND time >= now() - " +
              std::to_string(window) + "s GROUP BY pod_name, nodename";
          ql::ExecStats stats;
          const ql::ResultSet rows =
              ql::PreparedQuery::prepare(text).execute(*db, at(now), &stats);
          const std::vector<core::ClusterMetrics::PodUsage> usages =
              column == std::string{"epc"} ? metrics.epc_per_pod(at(now))
                                           : metrics.memory_per_pod(at(now));
          const std::string where = context + " [" +
                                    std::to_string(db->shard_count()) +
                                    " shards] per-pod " + text;
          EXPECT_EQ(pod_entries_of(rows, column), pod_entries_of(usages))
              << where;
          EXPECT_EQ(metrics.last_query_stats().series_scanned, stats.series)
              << where;
          EXPECT_EQ(metrics.last_query_stats().points_scanned, stats.points)
              << where;
        }
      }
    }
  }
}

// 8 ingest realizations × (30 + 12 + 1) queries ≈ 344 generated queries,
// each checked on three shard counts, plus the oracle phases above.
INSTANTIATE_TEST_SUITE_P(Seeds, TsdbDiffTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- Targeted cases the generator may only graze -----------------------

TEST(TsdbDiffTargeted, WindowEdgesOnSampleInstants) {
  StoreSet set{42};
  // Pod phases of 0-4 s at a 5 s cadence put a sample on every whole
  // second, so each window below starts on some pod's sample at one anchor
  // (the inclusive edge keeps it) and just after it at the next (the
  // sample drops out).
  for (const std::int64_t now_s : {360, 361, 600, 601}) {
    for (const char* text : {
             "SELECT SUM(value) AS v FROM \"sgx/epc\" "
             "WHERE time >= now() - 120s",
             "SELECT MAX(value) AS v FROM \"sgx/epc\" "
             "WHERE time >= now() - 480s GROUP BY pod_name",
             "SELECT SUM(value) AS v FROM \"sgx/epc\" "
             "WHERE value <> 0 AND time >= now() - 10s GROUP BY nodename",
         }) {
      check_query(set, text, at(now_s),
                  "sample-edge now=" + std::to_string(now_s));
    }
  }
}

TEST(TsdbDiffTargeted, WideWindows) {
  StoreSet set{43};
  const TimePoint now = at(3600);
  // Windows of 200 s to the whole hour, with and without `value <> 0`,
  // per pod, per node and over the whole measurement.
  for (const char* text : {
           "SELECT MAX(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 1200s GROUP BY pod_name",
           "SELECT MAX(value) AS v FROM \"sgx/epc\" "
           "WHERE value <> 0 AND time >= now() - 1200s "
           "GROUP BY pod_name",
           "SELECT SUM(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 3600s GROUP BY nodename",
           "SELECT SUM(value) AS v FROM \"sgx/epc\" "
           "WHERE value <> 0 AND time >= now() - 1200s GROUP BY pod_name",
           "SELECT SUM(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 200s",
       }) {
    check_query(set, text, now, "wide-window");
  }
}

TEST(TsdbDiffTargeted, SeriesDifferingOnlyOutsideGroupByFoldIntoOneGroup) {
  // Heapster's memory series carry a "type" tag the per-pod statement does
  // not group by: two series of one pod that differ only there are one
  // group, on every shard count, in execute() and in the read-out.
  for (const std::size_t shards : kShardCounts) {
    Database db{shards};
    db.write("memory/usage",
             {{"pod_name", "p"}, {"nodename", "n"}, {"type", "pod"}}, at(10),
             3.0);
    db.write("memory/usage",
             {{"pod_name", "p"}, {"nodename", "n"}, {"type", "container"}},
             at(20), 5.0);
    db.write("memory/usage",
             {{"pod_name", "q"}, {"nodename", "n"}, {"type", "pod"}}, at(20),
             1.0);
    const std::string context = std::to_string(shards) + " shards";
    for (const auto& [agg, p_value] : {std::pair{"MAX", 5.0},
                                       std::pair{"SUM", 8.0}}) {
      const ql::PreparedQuery query = ql::PreparedQuery::prepare(
          std::string{"SELECT "} + agg +
          "(value) AS m FROM \"memory/usage\" GROUP BY pod_name, nodename");
      const ql::ResultSet result = query.execute(db, at(20));
      ASSERT_EQ(result.rows.size(), 2u) << context << " " << agg;
      EXPECT_EQ(result.rows[0].tags, (Tags{{"nodename", "n"}, {"pod_name", "p"}}))
          << context;
      EXPECT_EQ(result.rows[0].time, at(10)) << context;
      EXPECT_EQ(result.rows[0].field("m"), p_value) << context << " " << agg;
      EXPECT_EQ(result.rows[1].tags, (Tags{{"nodename", "n"}, {"pod_name", "q"}}))
          << context;
      EXPECT_EQ(result.rows[1].field("m"), 1.0) << context;
      std::size_t groups = 0;
      query.for_each_group(db, at(20),
                           [&groups](const Tags&, TimePoint, double) {
                             ++groups;
                           });
      EXPECT_EQ(groups, 2u) << context << " " << agg;
      expect_read_out_matches(query, db, at(20), context);
    }
  }
}

TEST(TsdbDiffTargeted, ShardStaleReadHorizonCutsExactly) {
  // A shard with a read horizon shows no point newer than it: every shard
  // of the 4-shard store frozen at one instant reads as the 1-shard
  // reference frozen there.
  Database flat{1};
  Database sharded{4};
  Rng rng{4242};
  for (int p = 0; p < 8; ++p) {
    const Tags tags{{"pod_name", "p" + std::to_string(p)}};
    for (std::int64_t t = 0; t <= 2400; t += 5) {
      const double value = static_cast<double>(rng.uniform_int(0, 100));
      flat.write("sgx/epc", tags, at(t), value);
      sharded.write("sgx/epc", tags, at(t), value);
    }
  }
  set_read_horizons(flat, at(1800));
  set_read_horizons(sharded, at(1800));
  for (const char* text : {
           "SELECT SUM(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 2400s",
           "SELECT MAX(value) AS v FROM \"sgx/epc\" GROUP BY pod_name",
       }) {
    const ql::PreparedQuery prepared = ql::PreparedQuery::prepare(text);
    const ql::ResultSet want = prepared.execute(flat, at(2400));
    expect_bit_identical(want, prepared.execute(sharded, at(2400)),
                         std::string("stale-read horizon ") + text);
  }
}

}  // namespace
}  // namespace sgxo::tsdb
