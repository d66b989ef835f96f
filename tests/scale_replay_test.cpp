// Scale smoke for the detection replay pipeline (ctest label "scale"):
// the pinned 10k-bot campaign records through the event tap, replays
// into a multi-family defender capture, and sweeps every detector
// threshold grid — end to end, deterministically, inside a generous
// wall-clock budget. Catches accidental O(bots x events) blowups in the
// trace/replay path that the 200-bot tier cannot see.
#include <gtest/gtest.h>

#include <chrono>

#include "detection/replay.hpp"
#include "detection/roc.hpp"
#include "pinned_campaigns.hpp"
#include "scenario/engine.hpp"

namespace onion::detection {
namespace {

using scenario::CampaignEngine;
using scenario::CampaignTrace;
using scenario::FanoutSink;
using scenario::HashSink;
using scenario::pinned_10k_spec;

ReplayConfig scale_replay_config() {
  ReplayConfig rc;
  rc.seed = 0x5ca1e;
  rc.benign_web = 500;
  rc.benign_tor = 100;
  rc.centralized_bots = 50;
  rc.dga_bots = 50;
  rc.fastflux_bots = 50;
  rc.p2p_bots = 50;
  rc.onion_mean_gap = kMinute;  // heartbeat cadence at campaign scale
  return rc;
}

TEST(ScaleReplay, TenThousandBotCampaignSweepsDeterministically) {
  const auto wall_start = std::chrono::steady_clock::now();

  CampaignTrace campaign;
  HashSink hash;
  FanoutSink fanout({&campaign, &hash});
  CampaignEngine(pinned_10k_spec(0xbeef, 5 * kMinute), fanout, &campaign).run();
  ASSERT_GT(campaign.events().size(), 1000u);

  const ReplayResult replay =
      replay_trace(campaign, scale_replay_config());
  // Every campaign bot (initial + joiners) is a monitored, infected host.
  EXPECT_GT(replay.onion_bots.size(), 10'000u);
  EXPECT_GT(replay.trace.flows.size(), 100'000u);

  const RocReport roc = RocSweep().run(replay.trace);
  ASSERT_EQ(roc.points.size(), RocSweep().cell_count());

  // A second end-to-end pass reproduces both fingerprints byte-for-byte.
  CampaignTrace again;
  HashSink hash2;
  FanoutSink fanout2({&again, &hash2});
  CampaignEngine(pinned_10k_spec(0xbeef, 5 * kMinute), fanout2, &again).run();
  EXPECT_EQ(hash.hex_digest(), hash2.hex_digest());
  EXPECT_EQ(campaign.fingerprint(), again.fingerprint());
  const ReplayResult replay2 = replay_trace(again, scale_replay_config());
  EXPECT_EQ(fingerprint(replay.trace), fingerprint(replay2.trace));
  EXPECT_EQ(RocSweep().run(replay2.trace).fingerprint, roc.fingerprint);

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
#ifdef NDEBUG
  // Generous budget (measured a few seconds in Release); sanitized
  // Debug builds lean on the ctest timeout instead.
  EXPECT_LT(wall_seconds, 240.0);
#else
  (void)wall_seconds;
#endif
}

}  // namespace
}  // namespace onion::detection
