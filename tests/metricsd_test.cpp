// Telemetry collection: ingestion, ordering, aggregate queries, codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/symbol.h"
#include "obs/slo/slo.h"
#include "orc8r/metricsd.h"
#include "rpc/wire.h"
#include "sim/random.h"

namespace magma::orc8r {
namespace {

MetricSample sample(const std::string& gw, const std::string& name,
                    double value, sim::TimePoint t) {
  return MetricSample{gw, name, value, t};
}

HistogramSnapshot full_snapshot(const std::string& gw, const std::string& name,
                                const obs::Histogram& h,
                                sim::TimePoint t = 0) {
  HistogramSnapshot s;
  s.gateway_id = gw;
  s.name = name;
  s.bounds = h.bounds();
  s.counts = h.counts();
  s.sum = h.sum();
  s.time = t;
  return s;
}

TEST(Metricsd, SeriesAccumulatesInTimeOrder) {
  Metricsd m;
  m.ingest(sample("gw0", "sessions", 1, 10));
  m.ingest(sample("gw0", "sessions", 2, 30));
  m.ingest(sample("gw0", "sessions", 3, 20));  // out of order
  const auto series = m.series("sessions");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].time, 10);
  EXPECT_EQ(series[1].time, 20);
  EXPECT_EQ(series[2].time, 30);
}

TEST(Metricsd, SumLatestAcrossGateways) {
  Metricsd m;
  m.ingest(sample("gw0", "sessions", 5, 10));
  m.ingest(sample("gw1", "sessions", 7, 10));
  m.ingest(sample("gw0", "sessions", 6, 20));  // gw0 updated
  EXPECT_DOUBLE_EQ(m.sum_latest("sessions"), 13.0);
  EXPECT_DOUBLE_EQ(m.sum_latest("missing"), 0.0);
}

TEST(Metricsd, LatestPerGateway) {
  Metricsd m;
  m.ingest(sample("gw0", "cpu", 0.5, 10));
  m.ingest(sample("gw0", "cpu", 0.9, 20));
  EXPECT_DOUBLE_EQ(m.latest("gw0", "cpu").value(), 0.9);
  EXPECT_FALSE(m.latest("gw1", "cpu").has_value());
  EXPECT_FALSE(m.latest("gw0", "nope").has_value());
}

TEST(Metricsd, SumInWindow) {
  Metricsd m;
  for (int h = 0; h < 10; ++h) {
    m.ingest(sample("gw0", "bytes", 100, h * sim::kHour));
  }
  EXPECT_DOUBLE_EQ(m.sum_in_window("bytes", 0, 5 * sim::kHour), 500.0);
  EXPECT_DOUBLE_EQ(m.sum_in_window("bytes", 5 * sim::kHour, 10 * sim::kHour),
                   500.0);
  EXPECT_DOUBLE_EQ(m.sum_in_window("bytes", 20 * sim::kHour, 30 * sim::kHour),
                   0.0);
}

TEST(Metricsd, MetricNames) {
  Metricsd m;
  m.ingest(sample("gw0", "a", 1, 0));
  m.ingest(sample("gw0", "b", 1, 0));
  const auto names = m.metric_names();
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

TEST(MetricsdAlerts, FireAndRecoverPerGateway) {
  Metricsd m;
  m.add_alert_rule(AlertRule{"cpu-high", "cpu_total", 0.9, true});

  m.ingest(sample("gw0", "cpu_total", 0.5, 10));
  EXPECT_TRUE(m.active_alerts().empty());

  m.ingest(sample("gw0", "cpu_total", 0.95, 20));
  m.ingest(sample("gw1", "cpu_total", 0.97, 20));
  ASSERT_EQ(m.active_alerts().size(), 2u);
  EXPECT_EQ(m.alerts_fired(), 2u);

  // gw0 recovers; gw1 keeps firing with a refreshed value.
  m.ingest(sample("gw0", "cpu_total", 0.4, 30));
  m.ingest(sample("gw1", "cpu_total", 0.99, 30));
  const auto alerts = m.active_alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].gateway_id, "gw1");
  EXPECT_DOUBLE_EQ(alerts[0].value, 0.99);
  EXPECT_EQ(m.alerts_fired(), 2u);  // refresh is not a new firing
}

TEST(MetricsdAlerts, FireBelowThreshold) {
  Metricsd m;
  m.add_alert_rule(AlertRule{"gw-offline", "checkin_ok", 0.5, false});
  m.ingest(sample("gw0", "checkin_ok", 1.0, 10));
  EXPECT_TRUE(m.active_alerts().empty());
  m.ingest(sample("gw0", "checkin_ok", 0.0, 20));
  EXPECT_EQ(m.active_alerts().size(), 1u);
}

TEST(MetricsdAlerts, RemoveRuleClearsFiring) {
  Metricsd m;
  m.add_alert_rule(AlertRule{"r", "x", 1.0, true});
  m.ingest(sample("gw0", "x", 5.0, 10));
  ASSERT_EQ(m.active_alerts().size(), 1u);
  m.remove_alert_rule("r");
  EXPECT_TRUE(m.active_alerts().empty());
  // Samples after removal do not fire.
  m.ingest(sample("gw0", "x", 9.0, 20));
  EXPECT_TRUE(m.active_alerts().empty());
}

TEST(MetricsdAlerts, ReAddReplacesRule) {
  Metricsd m;
  m.add_alert_rule(AlertRule{"r", "x", 10.0, true});
  m.ingest(sample("gw0", "x", 5.0, 10));
  EXPECT_TRUE(m.active_alerts().empty());
  m.add_alert_rule(AlertRule{"r", "x", 1.0, true});  // tightened
  m.ingest(sample("gw0", "x", 5.0, 20));
  EXPECT_EQ(m.active_alerts().size(), 1u);
}

TEST(MetricsdAlerts, RefiresAfterRecovery) {
  Metricsd m;
  m.add_alert_rule(AlertRule{"cpu-high", "cpu_total", 0.9, true});
  m.ingest(sample("gw0", "cpu_total", 0.95, 10));
  EXPECT_EQ(m.alerts_fired(), 1u);
  // Back in bounds: clears.
  m.ingest(sample("gw0", "cpu_total", 0.5, 20));
  EXPECT_TRUE(m.active_alerts().empty());
  // Crosses again: a *new* firing, not a refresh.
  m.ingest(sample("gw0", "cpu_total", 0.93, 30));
  ASSERT_EQ(m.active_alerts().size(), 1u);
  EXPECT_EQ(m.alerts_fired(), 2u);
  EXPECT_EQ(m.active_alerts()[0].since, 30);
}

TEST(MetricsdAlerts, GatewaysFireAndClearIndependently) {
  Metricsd m;
  m.add_alert_rule(AlertRule{"cpu-high", "cpu_total", 0.9, true});
  m.ingest(sample("gw0", "cpu_total", 0.95, 10));
  m.ingest(sample("gw1", "cpu_total", 0.2, 10));
  auto alerts = m.active_alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].gateway_id, "gw0");
  // gw1 crossing does not disturb gw0's firing record.
  m.ingest(sample("gw1", "cpu_total", 0.99, 20));
  alerts = m.active_alerts();
  ASSERT_EQ(alerts.size(), 2u);
  // gw0 clearing leaves gw1 firing.
  m.ingest(sample("gw0", "cpu_total", 0.1, 30));
  alerts = m.active_alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].gateway_id, "gw1");
}

TEST(MetricsdAlerts, DeltaRuleFiresOnGrowthOnly) {
  Metricsd m;
  m.add_alert_rule(
      AlertRule{"resets", "transport_resets", 0.0, true, AlertKind::kDelta});
  // First sample: no previous value, never fires (a freshly-registered
  // gateway reporting a nonzero counter is not an incident).
  m.ingest(sample("gw0", "transport_resets", 3, 10));
  EXPECT_TRUE(m.active_alerts().empty());
  // Flat: no growth, no alert.
  m.ingest(sample("gw0", "transport_resets", 3, 20));
  EXPECT_TRUE(m.active_alerts().empty());
  // Growth: fires.
  m.ingest(sample("gw0", "transport_resets", 4, 30));
  ASSERT_EQ(m.active_alerts().size(), 1u);
  EXPECT_EQ(m.alerts_fired(), 1u);
  // Flat again: clears.
  m.ingest(sample("gw0", "transport_resets", 4, 40));
  EXPECT_TRUE(m.active_alerts().empty());
}

TEST(MetricsdAlerts, DefaultTransportRules) {
  Metricsd m;
  install_default_transport_rules(m);
  // SRTT below 2x baseline: quiet. Above: pages.
  m.ingest(sample("gw0", "transport_srtt_s", 0.3, 10));
  EXPECT_TRUE(m.active_alerts().empty());
  m.ingest(sample("gw0", "transport_srtt_s", 0.6, 20));
  ASSERT_EQ(m.active_alerts().size(), 1u);
  EXPECT_EQ(m.active_alerts()[0].rule, "transport_srtt_high");
  // Reset growth pages too.
  m.ingest(sample("gw0", "transport_resets", 0, 10));
  m.ingest(sample("gw0", "transport_resets", 1, 20));
  EXPECT_EQ(m.active_alerts().size(), 2u);
}

TEST(MetricsdAlerts, RtoAtCapGrowthPages) {
  // A control channel whose retransmission timer keeps hitting max_rto is
  // backed off as far as it can go: the default rules page on any growth of
  // the transport_rto_at_cap counter, and quiesce when it stops moving.
  Metricsd m;
  install_default_transport_rules(m);
  m.ingest(sample("gw0", "transport_rto_at_cap", 0, 10));
  EXPECT_TRUE(m.active_alerts().empty());
  m.ingest(sample("gw0", "transport_rto_at_cap", 3, 20));
  ASSERT_EQ(m.active_alerts().size(), 1u);
  EXPECT_EQ(m.active_alerts()[0].rule, "transport_rto_at_cap_growth");
  EXPECT_EQ(m.active_alerts()[0].gateway_id, "gw0");
  m.ingest(sample("gw0", "transport_rto_at_cap", 3, 30));
  EXPECT_TRUE(m.active_alerts().empty());
}

TEST(MetricsdRetention, PerSeriesCapDropsOldest) {
  Metricsd m;
  m.set_retention(3);
  for (int i = 0; i < 10; ++i) {
    m.ingest(sample("gw0", "cpu", i, i * 10));
  }
  const auto series = m.series("cpu");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].value, 7.0);  // oldest trimmed first
  EXPECT_DOUBLE_EQ(series[2].value, 9.0);
  EXPECT_EQ(m.samples_dropped(), 7u);
  // Tightening the cap trims existing series immediately.
  m.set_retention(1);
  EXPECT_EQ(m.series("cpu").size(), 1u);
  EXPECT_EQ(m.samples_dropped(), 9u);
}

// --- Store and rule binding vs the sample-list reference --------------------
//
// The reference is the plain algorithm metricsd's row store replaced: whole
// MetricSamples in one time-ordered vector per name, every rule evaluated
// against every sample, alert state keyed by string pairs. The sweep drives
// both with the same random steps and compares every query after each one.

class SampleListReference {
 public:
  void ingest(const MetricSample& s) {
    evaluate(s);
    std::vector<MetricSample>& series = by_name_[s.name];
    if (!series.empty() && series.back().time > s.time) {
      series.insert(std::upper_bound(series.begin(), series.end(), s.time,
                                     [](sim::TimePoint t,
                                        const MetricSample& x) {
                                       return t < x.time;
                                     }),
                    s);
    } else {
      series.push_back(s);
    }
    ++total_;
    if (cap_ != 0 && series.size() > cap_) {
      const std::size_t evict =
          std::min(std::max<std::size_t>(1, cap_ / 2), series.size());
      series.erase(series.begin(),
                   series.begin() + static_cast<std::ptrdiff_t>(evict));
      dropped_[0] += evict;
    }
  }

  void set_retention(std::size_t cap) {
    cap_ = cap;
    if (cap_ == 0) return;
    for (auto& [_, series] : by_name_) {
      if (series.size() > cap_) {
        const std::size_t excess = series.size() - cap_;
        series.erase(series.begin(),
                     series.begin() + static_cast<std::ptrdiff_t>(excess));
        dropped_[0] += excess;
      }
    }
  }

  void self_observe(sim::TimePoint now) {
    for (std::size_t i = 0; i < Metricsd::kDropKindCount; ++i) {
      ingest(MetricSample{
          Metricsd::drop_kind_name(static_cast<Metricsd::DropKind>(i)),
          "metricsd_samples_dropped", static_cast<double>(dropped_[i]), now});
    }
  }

  void add_rule(const AlertRule& rule) {
    remove_rule(rule.name);
    rules_.push_back(rule);
  }

  void remove_rule(const std::string& name) {
    std::erase_if(rules_, [&](const AlertRule& r) { return r.name == name; });
    std::erase_if(firing_,
                  [&](const auto& kv) { return kv.first.first == name; });
    std::erase_if(burn_, [&](const auto& kv) { return kv.first.first == name; });
  }

  std::vector<std::string> metric_names() const {
    std::vector<std::string> names;
    for (const auto& [name, _] : by_name_) names.push_back(name);
    return names;
  }
  std::vector<MetricSample> series(const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? std::vector<MetricSample>{} : it->second;
  }
  std::optional<double> latest_at_or_before(const std::string& gw,
                                            const std::string& name,
                                            sim::TimePoint at) const {
    const std::vector<MetricSample> all = series(name);
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
      if (it->time <= at && it->gateway_id == gw) return it->value;
    }
    return std::nullopt;
  }
  double sum_latest(const std::string& name) const {
    std::map<std::string, double> latest;
    for (const MetricSample& s : series(name)) latest[s.gateway_id] = s.value;
    double sum = 0;
    for (const auto& [_, v] : latest) sum += v;
    return sum;
  }
  double sum_in_window(const std::string& name, sim::TimePoint from,
                       sim::TimePoint to) const {
    double sum = 0;
    for (const MetricSample& s : series(name)) {
      if (s.time >= from && s.time < to) sum += s.value;
    }
    return sum;
  }
  std::optional<double> mean_in_window(const std::string& name,
                                       sim::TimePoint from,
                                       sim::TimePoint to) const {
    double sum = 0;
    std::size_t n = 0;
    for (const MetricSample& s : series(name)) {
      if (s.time >= from && s.time < to) {
        sum += s.value;
        ++n;
      }
    }
    if (n == 0) return std::nullopt;
    return sum / static_cast<double>(n);
  }
  std::vector<ActiveAlert> active_alerts() const {
    std::vector<ActiveAlert> out;
    for (const auto& [_, alert] : firing_) out.push_back(alert);
    return out;
  }
  std::uint64_t alerts_fired() const { return fired_; }
  std::uint64_t dropped_metric() const { return dropped_[0]; }
  std::size_t total() const { return total_; }

 private:
  using Key = std::pair<std::string, std::string>;

  void evaluate(const MetricSample& s) {
    const auto prev = last_value_.find({s.name, s.gateway_id});
    for (const AlertRule& rule : rules_) {
      if (rule.metric != s.name) continue;
      const Key key{rule.name, s.gateway_id};
      bool breached = false;
      double value = s.value;
      if (rule.kind == AlertKind::kDelta) {
        if (prev != last_value_.end()) {
          const double delta = s.value - prev->second;
          breached = rule.fire_above ? delta > rule.threshold
                                     : delta < rule.threshold;
        }
      } else if (rule.kind == AlertKind::kBurnRate) {
        Burn& b = burn_[key];
        b.samples.emplace_back(s.time, s.value);
        b.sum += s.value;
        while (!b.samples.empty() &&
               b.samples.front().first <= s.time - rule.slow_window) {
          b.sum -= b.samples.front().second;
          b.samples.pop_front();
        }
        double fast_sum = 0;
        std::size_t fast_n = 0;
        for (auto it = b.samples.rbegin();
             it != b.samples.rend() && it->first > s.time - rule.fast_window;
             ++it) {
          fast_sum += it->second;
          ++fast_n;
        }
        const double fast = obs::slo::burn_rate(
            fast_sum / static_cast<double>(fast_n), rule.objective);
        const double slow = obs::slo::burn_rate(
            b.sum / static_cast<double>(b.samples.size()), rule.objective);
        breached = fast > rule.threshold && slow > rule.threshold;
        value = fast;
      } else {
        breached = rule.fire_above ? s.value > rule.threshold
                                   : s.value < rule.threshold;
      }
      auto it = firing_.find(key);
      if (breached) {
        if (it == firing_.end()) {
          firing_[key] = ActiveAlert{rule.name, s.gateway_id, value, s.time};
          ++fired_;
        } else {
          it->second.value = value;
        }
      } else if (it != firing_.end()) {
        firing_.erase(it);
      }
    }
    last_value_[{s.name, s.gateway_id}] = s.value;
  }

  struct Burn {
    std::deque<std::pair<sim::TimePoint, double>> samples;
    double sum = 0;
  };
  std::map<std::string, std::vector<MetricSample>> by_name_;
  std::size_t total_ = 0;
  std::size_t cap_ = 100000;
  std::array<std::uint64_t, Metricsd::kDropKindCount> dropped_{};
  std::vector<AlertRule> rules_;
  std::map<Key, ActiveAlert> firing_;
  std::map<Key, double> last_value_;
  std::map<Key, Burn> burn_;
  std::uint64_t fired_ = 0;
};

class MetricsdSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricsdSweep, MatchesSampleListReference) {
  sim::Rng rng(GetParam());
  Metricsd m;
  SampleListReference ref;
  // m5 is first ingested halfway through, so rules wait on it for a while;
  // m6 is only ever watched.
  const std::vector<std::string> names = {"m0", "m1", "m2", "m3", "m4", "m5",
                                          "m6", "metricsd_samples_dropped"};
  const std::vector<std::string> gateways = {"gw0", "gw1", "gw2", "gw3",
                                       "gw4", "gw5", "gw6", "gw7"};
  auto pick = [&](const auto& v) { return v[rng.uniform_int(v.size())]; };
  constexpr int kSteps = 400;
  sim::TimePoint now = 100;
  for (int step = 0; step < kSteps && !HasFailure(); ++step) {
    now += static_cast<sim::TimePoint>(rng.uniform_int(3));  // 0: equal time
    const std::uint64_t op = rng.uniform_int(100);
    if (op < 62) {
      MetricSample s;
      s.gateway_id = pick(gateways);
      s.name = names[rng.uniform_int(step < kSteps / 2 ? 5 : 6)];
      // Small integers make thresholds and deltas tie; fractions make the
      // summation order show.
      s.value = rng.bernoulli(0.5) ? static_cast<double>(rng.uniform_int(4))
                                   : rng.uniform(0, 3);
      s.time = rng.bernoulli(0.2)
                   ? now - static_cast<sim::TimePoint>(rng.uniform_int(6))
                   : now;
      m.ingest(s);
      ref.ingest(s);
    } else if (op < 80) {
      AlertRule rule;
      rule.name = "r" + std::to_string(rng.uniform_int(6));
      rule.metric = pick(names);
      rule.kind = static_cast<AlertKind>(rng.uniform_int(3));
      rule.fire_above = rng.bernoulli(0.5);
      rule.threshold = rule.kind == AlertKind::kBurnRate
                           ? rng.uniform(0, 3)
                           : static_cast<double>(rng.uniform_int(4)) - 1;
      rule.objective = 0.5;
      rule.fast_window = 1 + static_cast<sim::Duration>(rng.uniform_int(4));
      rule.slow_window =
          rule.fast_window + static_cast<sim::Duration>(rng.uniform_int(10));
      m.add_alert_rule(rule);
      ref.add_rule(rule);
    } else if (op < 88) {
      const std::string name = "r" + std::to_string(rng.uniform_int(7));
      m.remove_alert_rule(name);
      ref.remove_rule(name);
    } else if (op < 94) {
      const std::size_t cap =
          rng.bernoulli(0.5) ? 0 : 1 + rng.uniform_int(3);
      m.set_retention(cap);
      ref.set_retention(cap);
    } else {
      m.self_observe(now);
      ref.self_observe(now);
    }

    const std::size_t symbols = common::symbol_count();
    ASSERT_EQ(m.metric_names(), ref.metric_names()) << "step " << step;
    for (const std::string& name : names) {
      const std::vector<MetricSample> got = m.series(name);
      const std::vector<MetricSample> want = ref.series(name);
      ASSERT_EQ(got.size(), want.size()) << name << " step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].gateway_id, want[i].gateway_id)
            << name << "[" << i << "] step " << step;
        ASSERT_EQ(got[i].name, want[i].name);
        ASSERT_EQ(got[i].value, want[i].value)
            << name << "[" << i << "] step " << step;
        ASSERT_EQ(got[i].time, want[i].time)
            << name << "[" << i << "] step " << step;
      }
      for (const std::string& gw :
           {gateways[0], gateways[3], gateways[7], std::string("metric"),
            std::string("gw-unknown")}) {
        EXPECT_EQ(m.latest(gw, name),
                  ref.latest_at_or_before(gw, name, now + 10))
            << gw << " " << name << " step " << step;
        const sim::TimePoint at =
            now - static_cast<sim::TimePoint>(rng.uniform_int(8));
        EXPECT_EQ(m.latest_at_or_before(gw, name, at),
                  ref.latest_at_or_before(gw, name, at))
            << gw << " " << name << " at " << at << " step " << step;
      }
      const sim::TimePoint from =
          now - static_cast<sim::TimePoint>(rng.uniform_int(20));
      const sim::TimePoint to =
          from + static_cast<sim::TimePoint>(rng.uniform_int(20));
      EXPECT_EQ(m.sum_in_window(name, from, to),
                ref.sum_in_window(name, from, to))
          << name << " step " << step;
      EXPECT_EQ(m.mean_in_window(name, from, to),
                ref.mean_in_window(name, from, to))
          << name << " step " << step;
      EXPECT_EQ(m.sum_latest(name), ref.sum_latest(name))
          << name << " step " << step;
    }
    const std::vector<ActiveAlert> got = m.active_alerts();
    const std::vector<ActiveAlert> want = ref.active_alerts();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].rule, want[i].rule) << "step " << step;
      EXPECT_EQ(got[i].gateway_id, want[i].gateway_id) << "step " << step;
      EXPECT_EQ(got[i].value, want[i].value) << "step " << step;
      EXPECT_EQ(got[i].since, want[i].since) << "step " << step;
    }
    EXPECT_EQ(m.alerts_fired(), ref.alerts_fired()) << "step " << step;
    EXPECT_EQ(m.samples_dropped(Metricsd::DropKind::kMetric),
              ref.dropped_metric())
        << "step " << step;
    EXPECT_EQ(m.total_samples(), ref.total()) << "step " << step;
    // Queries never intern: the unknown gateway left no symbol behind.
    EXPECT_EQ(common::symbol_count(), symbols) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsdSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(MetricsdHistograms, IngestMergeAndQuantiles) {
  Metricsd m;
  obs::Histogram gw0;
  obs::Histogram gw1;
  for (int i = 0; i < 50; ++i) gw0.observe(0.01);
  for (int i = 0; i < 50; ++i) gw1.observe(1.0);

  auto snapshot = [](const std::string& gw, const obs::Histogram& h) {
    return full_snapshot(gw, "attach_s", h);
  };
  m.ingest_histogram(snapshot("gw0", gw0));
  m.ingest_histogram(snapshot("gw1", gw1));

  EXPECT_EQ(m.histogram_count("attach_s"), 100u);
  EXPECT_EQ(m.histogram_names(), std::vector<std::string>{"attach_s"});
  // Merged across gateways: the median splits the two populations.
  EXPECT_LT(m.histogram_quantile("attach_s", 0.25), 0.1);
  EXPECT_GT(m.histogram_quantile("attach_s", 0.75), 0.3);
  EXPECT_EQ(m.histogram_count("missing"), 0u);
  EXPECT_DOUBLE_EQ(m.histogram_quantile("missing", 0.5), 0.0);

  // Cumulative snapshots replace, never double-count.
  for (int i = 0; i < 25; ++i) gw0.observe(0.01);
  m.ingest_histogram(snapshot("gw0", gw0));
  EXPECT_EQ(m.histogram_count("attach_s"), 125u);
}

TEST(MetricsdHistograms, MalformedSnapshotIgnored) {
  Metricsd m;
  HistogramSnapshot bad;
  bad.gateway_id = "gw0";
  bad.name = "x";
  bad.bounds = {1.0, 2.0};
  bad.counts = {1, 2};  // must be bounds+1
  m.ingest_histogram(bad);
  EXPECT_EQ(m.histogram_count("x"), 0u);
}

TEST(MetricsdHistograms, DeltaOverlaysStoredBase) {
  Metricsd m;
  obs::Histogram h;
  for (int i = 0; i < 10; ++i) h.observe(0.01);
  m.ingest_histogram(full_snapshot("gw0", "attach_s", h));
  ASSERT_EQ(m.histogram_count("attach_s"), 10u);

  // Ship only the changed buckets, as new *cumulative* values.
  const std::vector<std::uint64_t> before = h.counts();
  for (int i = 0; i < 5; ++i) h.observe(0.01);
  h.observe(3.0);
  HistogramSnapshot delta;
  delta.gateway_id = "gw0";
  delta.name = "attach_s";
  delta.delta = true;
  delta.sum = h.sum();
  const std::vector<std::uint64_t> after = h.counts();
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i] != before[i]) {
      delta.changed.emplace_back(static_cast<std::uint32_t>(i), after[i]);
    }
  }
  ASSERT_EQ(delta.changed.size(), 2u);
  m.ingest_histogram(delta);
  EXPECT_EQ(m.histogram_count("attach_s"), 16u);
  EXPECT_EQ(m.merged_histogram("attach_s").counts(), after);
  EXPECT_DOUBLE_EQ(m.merged_histogram("attach_s").sum(), h.sum());
  EXPECT_EQ(m.histogram_delta_orphans(), 0u);
}

TEST(MetricsdHistograms, DeltaWithoutBaseIsAnOrphan) {
  Metricsd m;
  HistogramSnapshot delta;
  delta.gateway_id = "gw0";
  delta.name = "never_seen";
  delta.delta = true;
  delta.changed = {{0, 4}};
  m.ingest_histogram(delta);
  EXPECT_EQ(m.histogram_delta_orphans(), 1u);
  EXPECT_EQ(m.histogram_count("never_seen"), 0u);
}

TEST(MetricsdHistograms, DeltaWithOutOfRangeBucketIsAnOrphan) {
  Metricsd m;
  obs::Histogram h;
  h.observe(0.5);
  m.ingest_histogram(full_snapshot("gw0", "attach_s", h));

  HistogramSnapshot delta;
  delta.gateway_id = "gw0";
  delta.name = "attach_s";
  delta.delta = true;
  delta.changed = {{static_cast<std::uint32_t>(h.counts().size()), 9}};
  m.ingest_histogram(delta);
  EXPECT_EQ(m.histogram_delta_orphans(), 1u);
  // The stored base is untouched.
  EXPECT_EQ(m.histogram_count("attach_s"), 1u);
}

TEST(HistogramReport, DeltaCodecRoundTrip) {
  HistogramSnapshot delta;
  delta.gateway_id = "gw0";
  delta.name = "attach_s";
  delta.delta = true;
  delta.changed = {{3, 17}, {12, 4}};
  delta.sum = 2.5;
  delta.time = 9 * sim::kSecond;
  obs::Histogram h;
  h.observe(1.0);
  const HistogramSnapshot full = full_snapshot("gw1", "detach_s", h);

  auto decoded = decode_histogram_report(encode_histogram_report({delta, full}));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_TRUE(decoded.value()[0].delta);
  EXPECT_EQ(decoded.value()[0].changed, delta.changed);
  EXPECT_TRUE(decoded.value()[0].bounds.empty());
  EXPECT_DOUBLE_EQ(decoded.value()[0].sum, 2.5);
  EXPECT_EQ(decoded.value()[0].time, 9 * sim::kSecond);
  EXPECT_FALSE(decoded.value()[1].delta);
  EXPECT_EQ(decoded.value()[1].counts, h.counts());
}

TEST(HistogramReport, CodecRejectsUnknownKindAndOversizedDelta) {
  // kind byte beyond the known 0/1 must be rejected, not skipped.
  {
    rpc::Writer w;
    w.u64(1);
    w.str("gw0");
    w.str("h");
    w.u8(7);  // unknown kind
    EXPECT_FALSE(decode_histogram_report(std::move(w).take()).ok());
  }
  // A delta whose entry count exceeds what the payload can hold is rejected
  // before any allocation.
  {
    rpc::Writer w;
    w.u64(1);
    w.str("gw0");
    w.str("h");
    w.u8(1);
    w.u32(0xFFFFFFFF);  // claims 4B entries with no bytes behind them
    EXPECT_FALSE(decode_histogram_report(std::move(w).take()).ok());
  }
}

TEST(HistogramReport, CodecRoundTrip) {
  obs::Histogram h;
  h.observe(0.05);
  h.observe(2.5);
  std::vector<HistogramSnapshot> snapshots = {
      full_snapshot("gw0", "span_accessd_establish_s", h, 42 * sim::kSecond),
  };
  auto decoded = decode_histogram_report(encode_histogram_report(snapshots));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0].gateway_id, "gw0");
  EXPECT_EQ(decoded.value()[0].name, "span_accessd_establish_s");
  EXPECT_EQ(decoded.value()[0].bounds, h.bounds());
  EXPECT_EQ(decoded.value()[0].counts, h.counts());
  EXPECT_DOUBLE_EQ(decoded.value()[0].sum, h.sum());
  EXPECT_EQ(decoded.value()[0].time, 42 * sim::kSecond);
}

TEST(HistogramReport, CodecRejectsGarbage) {
  EXPECT_FALSE(decode_histogram_report(common::to_bytes("bogus")).ok());
}

TEST(MetricReport, CodecRoundTrip) {
  std::vector<MetricSample> samples = {
      sample("gw0", "sessions", 42.5, 123456789),
      sample("gw1", "cpu_user", 0.33, 987654321),
  };
  auto decoded = decode_metric_report(encode_metric_report(samples));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_EQ(decoded.value()[0].gateway_id, "gw0");
  EXPECT_EQ(decoded.value()[0].name, "sessions");
  EXPECT_DOUBLE_EQ(decoded.value()[0].value, 42.5);
  EXPECT_EQ(decoded.value()[1].time, 987654321);
}

TEST(MetricReport, CodecRejectsGarbage) {
  EXPECT_FALSE(decode_metric_report(common::to_bytes("zz")).ok());
}

}  // namespace
}  // namespace magma::orc8r
