// Differential equivalence suite for the sharded TSDB (ISSUE 9 satellite).
//
// The sharding contract is strong: for ANY query, an N-shard database fed
// the same ingest must return bit-identical results to a 1-shard database
// — not approximately equal, identical to the last mantissa bit. This
// holds because every aggregate merges order-independently (count/sum are
// additive over integer-valued samples, min/max are lattice joins,
// first/last break ties lexicographically, quantiles fold into a mergeable
// sketch) and partials merge in shard order.
//
// The suite generates hundreds of seeded random queries over a seeded
// random ingest and compares 1-shard reference results against 2/4/8-shard
// stores, covering: windows straddling chunk boundaries, wide windows next
// to narrow ones, GROUP BY time() at several intervals, quantile sketches,
// the nested Listing-1 shape, LIMIT/OFFSET, and post-retention horizons.
// A churn phase checks the stores against a brute-force fold over the
// recorded writes as well, since cross-shard agreement cannot catch a flaw
// every store shares, and another checks newest_time against the points
// left visible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tsdb/model.hpp"
#include "tsdb/ql/executor.hpp"
#include "tsdb/ql/prepared.hpp"

namespace sgxo::tsdb {
namespace {

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

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

/// One ingest realization shared by all shard counts: integer-valued
/// samples (double sums stay exact in any order), a 2-minute chunk width
/// so multi-minute windows straddle several chunks, and an hour of history
/// at 5 s cadence.
struct StoreSet {
  std::vector<std::unique_ptr<Database>> stores;

  explicit StoreSet(std::uint64_t seed) {
    for (const std::size_t shards : kShardCounts) {
      DatabaseConfig config;
      config.shards = shards;
      config.chunk_width = Duration::seconds(120);
      stores.push_back(std::make_unique<Database>(config));
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
/// windows run from the scheduler's 25 s to the whole hour of history, at
/// GROUP BY time() intervals that do and do not divide a minute.
std::string random_query(Rng& rng) {
  static const char* const kAggs[] = {"MAX",   "MIN",  "SUM", "COUNT",
                                      "MEAN",  "FIRST", "LAST", "P50",
                                      "P95",   "P99"};
  static const std::int64_t kWindows[] = {25, 90, 200, 480, 1200, 3600};
  static const char* const kIntervals[] = {"", "10s", "60s", "50s", "120s"};

  const std::string agg =
      kAggs[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  const std::int64_t window =
      kWindows[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  const std::string interval =
      kIntervals[static_cast<std::size_t>(rng.uniform_int(0, 4))];

  if (rng.bernoulli(0.25)) {
    // The paper's Listing-1 shape: per-pod max rolled up per node.
    return "SELECT SUM(epc) AS epc FROM "
           "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
           "WHERE value <> 0 AND time >= now() - " +
           std::to_string(window) +
           "s GROUP BY pod_name, nodename) GROUP BY nodename";
  }

  std::string text = "SELECT " + agg + "(value) AS v FROM \"sgx/epc\"";
  std::vector<std::string> where;
  where.push_back("time >= now() - " + std::to_string(window) + "s");
  if (rng.bernoulli(0.3)) {
    where.push_back("value <> 0");
  }
  if (rng.bernoulli(0.15)) {
    where.push_back("value > " + std::to_string(rng.uniform_int(0, 400)));
  }
  if (rng.bernoulli(0.3)) {
    where.push_back("time <= now() - " +
                    std::to_string(rng.uniform_int(0, window / 2)) + "s");
  }
  text += " WHERE " + where[0];
  for (std::size_t i = 1; i < where.size(); ++i) text += " AND " + where[i];

  std::vector<std::string> group;
  if (rng.bernoulli(0.5)) group.push_back("pod_name");
  if (rng.bernoulli(0.3)) group.push_back("nodename");
  if (!interval.empty() && rng.bernoulli(0.6)) {
    group.push_back("time(" + interval + ")");
  }
  if (!group.empty()) {
    text += " GROUP BY " + group[0];
    for (std::size_t i = 1; i < group.size(); ++i) text += ", " + group[i];
  }
  if (rng.bernoulli(0.2)) {
    text += " LIMIT " + std::to_string(rng.uniform_int(1, 8));
    if (rng.bernoulli(0.5)) {
      text += " OFFSET " + std::to_string(rng.uniform_int(1, 3));
    }
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
}

class TsdbDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TsdbDiffTest, GeneratedQueriesAreBitIdenticalAcrossShardCounts) {
  const std::uint64_t seed = GetParam();
  StoreSet set{seed};
  Rng rng{seed * 7919 + 1};
  // Anchor inside the data so both look-back and closed windows hit.
  const TimePoint now = at(3600);
  for (int i = 0; i < 30; ++i) {
    check_query(set, random_query(rng), now,
                "seed=" + std::to_string(seed) + " q=" + std::to_string(i));
  }
}

TEST_P(TsdbDiffTest, EquivalenceHoldsAfterRetentionAndCompaction) {
  const std::uint64_t seed = GetParam();
  StoreSet set{seed};
  // Age the stores: drop everything older than 20 minutes, then compact
  // the sealed remainder. All stores must cut at the same horizon.
  for (auto& db : set.stores) {
    db->maintain(at(3600), Duration::minutes(20));
  }
  Rng rng{seed * 104729 + 3};
  const TimePoint now = at(3600);
  for (int i = 0; i < 12; ++i) {
    check_query(set, random_query(rng), now,
                "post-retention seed=" + std::to_string(seed) +
                    " q=" + std::to_string(i));
  }
  // Windows reaching past the horizon see exactly the surviving points.
  check_query(set, "SELECT COUNT(value) AS n FROM \"sgx/epc\"", now,
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

  [[nodiscard]] std::optional<TimePoint> newest() const {
    std::optional<TimePoint> newest;
    for (const Entry& entry : writes_) {
      const TimePoint t = TimePoint::from_micros(entry.time_us);
      if (entry.alive && (!newest.has_value() || t > *newest)) newest = t;
    }
    return newest;
  }

  /// COUNT/FIRST/LAST/MAX/MIN/SUM of the live points in [lo, hi] grouped
  /// by `group_by`, rows in tags_key order, row time = earliest point.
  [[nodiscard]] ql::ResultSet fold(std::int64_t lo, std::int64_t hi,
                                   bool nonzero_only,
                                   const std::vector<std::string>& group_by)
      const {
    struct Cell {
      Tags tags;
      std::int64_t first_t = 0, last_t = 0;
      double n = 0, first = 0, last = 0, max = 0, min = 0, sum = 0;
    };
    std::map<std::string, Cell> cells;
    for (const Entry& e : writes_) {
      if (!e.alive || e.time_us < lo || e.time_us > hi) continue;
      if (nonzero_only && e.value == 0.0) continue;
      Tags key;
      for (const std::string& tag : group_by) {
        const auto it = e.tags.find(tag);
        key.emplace(tag, it == e.tags.end() ? "" : it->second);
      }
      Cell& c = cells[tags_key(key)];
      if (c.n == 0) {
        c = Cell{key, e.time_us, e.time_us, 1, e.value, e.value,
                 e.value, e.value, e.value};
        continue;
      }
      ++c.n;
      c.sum += e.value;
      c.max = std::max(c.max, e.value);
      c.min = std::min(c.min, e.value);
      if (e.time_us < c.first_t || (e.time_us == c.first_t && e.value < c.first)) {
        c.first_t = e.time_us;
        c.first = e.value;
      }
      if (e.time_us > c.last_t || (e.time_us == c.last_t && e.value > c.last)) {
        c.last_t = e.time_us;
        c.last = e.value;
      }
    }
    ql::ResultSet result;
    for (const auto& [key, c] : cells) {
      ql::Row row;
      row.tags = c.tags;
      row.time = TimePoint::from_micros(c.first_t);
      row.fields = {{"n", c.n},   {"f", c.first}, {"l", c.last},
                    {"hi", c.max}, {"lo", c.min},  {"s", c.sum}};
      result.rows.push_back(std::move(row));
    }
    return result;
  }

  /// Paper Listing 1: per-node SUM of the per-pod MAX of nonzero samples.
  [[nodiscard]] ql::ResultSet listing1(std::int64_t lo) const {
    const ql::ResultSet pods =
        fold(lo, std::numeric_limits<std::int64_t>::max(), true,
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
  std::vector<std::unique_ptr<Database>> stores;
  for (const std::size_t shards : {1, 4}) {
    DatabaseConfig config;
    config.shards = shards;
    config.chunk_width = Duration::seconds(120);
    stores.push_back(std::make_unique<Database>(config));
  }
  WriteLog log;
  const auto write = [&](const Tags& tags, std::int64_t t, double value) {
    for (auto& db : stores) db->write("sgx/epc", tags, at(t), value);
    log.write(tags, at(t).micros_since_epoch(), value);
  };

  struct Pod {
    Tags tags;
    std::int64_t end = 0;
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
    for (const Pod& pod : pods) {
      if (now <= pod.end) {
        write(pod.tags, now, static_cast<double>(rng.uniform_int(0, 50)));
      }
    }
    // A late sample for some pod, live or long gone: anywhere from just
    // now to past the retention horizon, often into an erased series.
    if (!pods.empty() && rng.bernoulli(0.2)) {
      const Pod& pod = pods[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pods.size()) - 1))];
      write(pod.tags, std::max<std::int64_t>(0, now - rng.uniform_int(0, 700)),
            static_cast<double>(rng.uniform_int(1, 50)));
    }
    if (now % 60 != 0) continue;

    for (auto& db : stores) db->maintain(at(now), Duration::seconds(kRetentionS));
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
      for (const std::int64_t cut : {std::int64_t{0}, std::int64_t{10}}) {
        for (const auto& [filter, nonzero] : filters) {
          for (const std::vector<std::string>& group_by :
               {std::vector<std::string>{"pod_name"},
                std::vector<std::string>{"nodename"},
                std::vector<std::string>{}}) {
            std::string text =
                "SELECT COUNT(value) AS n, FIRST(value) AS f, "
                "LAST(value) AS l, MAX(value) AS hi, MIN(value) AS lo, "
                "SUM(value) AS s FROM \"sgx/epc\" WHERE " +
                filter + "time >= now() - " + std::to_string(window) + "s";
            std::int64_t hi = std::numeric_limits<std::int64_t>::max();
            if (cut > 0) {
              text += " AND time <= now() - " + std::to_string(cut) + "s";
              hi = at(now - cut).micros_since_epoch();
            }
            if (!group_by.empty()) text += " GROUP BY " + group_by[0];
            const ql::ResultSet want = log.fold(lo, hi, nonzero, group_by);
            const ql::PreparedQuery query = ql::PreparedQuery::prepare(text);
            for (auto& db : stores) {
              expect_bit_identical(want, query.execute(*db, at(now)),
                                   context + " " + text);
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
    EXPECT_EQ(stores[0]->series_count("sgx/epc"),
              stores[1]->series_count("sgx/epc"))
        << context;
  }
  // Retention really did erase series along the way.
  EXPECT_LT(stores[0]->series_count("sgx/epc"), pods.size());
}

// --- newest_time: the staleness probe's answer ----------------------------
//
// Database::newest_time reads each measurement's kept newest point time
// and walks series only on a shard frozen under a read horizon. Check it
// against a brute-force maximum over the points retention has left, each
// cut by its own shard's effective horizon, while pods churn, late writes
// land out of order, global and per-shard horizons come and go, and
// retention finally drains the store.

TEST_P(TsdbDiffTest, NewestTimeMatchesBruteForceOverVisiblePoints) {
  const std::uint64_t seed = GetParam();
  std::vector<std::unique_ptr<Database>> stores;
  for (const std::size_t shards : {1, 4}) {
    DatabaseConfig config;
    config.shards = shards;
    config.chunk_width = Duration::seconds(120);
    stores.push_back(std::make_unique<Database>(config));
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
    for (auto& db : stores) db->maintain(at(now), Duration::seconds(retention));
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
            db.effective_read_horizon(w.shard[i]);
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
    // Stale reads come and go: database-wide and on single shards.
    if (rng.bernoulli(0.05)) {
      const std::optional<TimePoint> horizon =
          rng.bernoulli(0.5) ? std::optional<TimePoint>{at(
                                   now - rng.uniform_int(0, 200))}
                             : std::nullopt;
      for (auto& db : stores) db->set_read_horizon(horizon);
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
  for (auto& db : stores) {
    db->set_read_horizon(std::nullopt);
    for (std::size_t s = 0; s < db->shard_count(); ++s) {
      db->set_shard_read_horizon(s, std::nullopt);
    }
  }
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
  for (auto& db : stores) db->set_read_horizon(at(now - 1));
  check("rewritten behind a horizon");
  for (auto& db : stores) {
    EXPECT_FALSE(db->newest_time("sgx/epc").has_value());
  }
}

// 8 ingest realizations × (30 + 12 + 1) queries ≈ 344 generated queries,
// each checked on three shard counts, plus the oracle phases above.
INSTANTIATE_TEST_SUITE_P(Seeds, TsdbDiffTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- Targeted cases the generator may only graze -----------------------

TEST(TsdbDiffTargeted, ChunkBoundaryStraddlingWindows) {
  StoreSet set{42};
  // chunk_width = 120 s: these windows start/end exactly on, one inside,
  // and one outside chunk edges.
  const TimePoint now = at(3600);
  for (const char* text : {
           "SELECT SUM(value) AS v FROM \"sgx/epc\" WHERE time >= 240s "
           "AND time <= 360s",
           "SELECT SUM(value) AS v FROM \"sgx/epc\" WHERE time >= 239s "
           "AND time <= 361s",
           "SELECT COUNT(value) AS v FROM \"sgx/epc\" WHERE time > 120s "
           "AND time < 600s GROUP BY pod_name",
           "SELECT MEAN(value) AS v FROM \"sgx/epc\" WHERE time >= 115s "
           "AND time <= 125s GROUP BY time(10s)",
       }) {
    check_query(set, text, now, "chunk-boundary");
  }
}

TEST(TsdbDiffTargeted, WideWindows) {
  StoreSet set{43};
  const TimePoint now = at(3600);
  // Windows of 200 s to the whole hour, with and without `value <> 0`,
  // per 10 s, per minute, per pod and per node.
  for (const char* text : {
           "SELECT MAX(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 1200s GROUP BY time(60s), pod_name",
           "SELECT MAX(value) AS v FROM \"sgx/epc\" "
           "WHERE value <> 0 AND time >= now() - 1200s "
           "GROUP BY time(60s), pod_name",
           "SELECT SUM(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 3600s GROUP BY nodename",
           "SELECT FIRST(value) AS f, LAST(value) AS l FROM \"sgx/epc\" "
           "WHERE time >= now() - 1200s GROUP BY pod_name",
           "SELECT MEAN(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 200s GROUP BY time(10s)",
       }) {
    check_query(set, text, now, "wide-window");
  }
}

TEST(TsdbDiffTargeted, QuantileSketchesMergeDeterministically) {
  StoreSet set{44};
  const TimePoint now = at(3600);
  for (const char* text : {
           "SELECT P50(value) AS med FROM \"sgx/epc\" "
           "WHERE time >= now() - 600s GROUP BY nodename",
           "SELECT P95(value) AS hi, P99(value) AS tail FROM \"sgx/epc\" "
           "WHERE time >= now() - 3600s",
           "SELECT P99(value) AS tail FROM \"sgx/epc\" "
           "WHERE time >= now() - 300s GROUP BY time(60s), pod_name",
       }) {
    check_query(set, text, now, "quantiles");
  }
}

TEST(TsdbDiffTargeted, ShardStaleReadHorizonCutsExactly) {
  // A shard with a read horizon shows no point newer than it. The
  // equivalent truncation on the 1-shard reference is the global horizon.
  DatabaseConfig flat_config;
  flat_config.chunk_width = Duration::seconds(120);
  Database flat{flat_config};
  DatabaseConfig sharded_config = flat_config;
  sharded_config.shards = 4;
  Database sharded{sharded_config};
  Rng rng{4242};
  for (int p = 0; p < 8; ++p) {
    const Tags tags{{"pod_name", "p" + std::to_string(p)}};
    for (std::int64_t t = 0; t <= 2400; t += 5) {
      const double value = static_cast<double>(rng.uniform_int(0, 100));
      flat.write("sgx/epc", tags, at(t), value);
      sharded.write("sgx/epc", tags, at(t), value);
    }
  }
  flat.set_read_horizon(at(1800));
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    sharded.set_shard_read_horizon(s, at(1800));
  }
  for (const char* text : {
           "SELECT SUM(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 2400s GROUP BY time(60s)",
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
