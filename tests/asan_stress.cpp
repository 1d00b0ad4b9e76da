// Memory-error stress for the messaging and exchange layers: the bus,
// the zero-copy Payload on the exchange board, the exchange engine and
// the thread pool under the round engine. Built with
// -fsanitize=address,undefined (see tests/CMakeLists.txt); the
// sanitizers exit non-zero on any heap misuse or UB, so a clean exit 0
// is the pass signal. The value checks at the end double as a logic
// smoke test when the binary is run without sanitizers.
#include <cstdio>
#include <span>
#include <vector>

#include "exchange_stress.hpp"
#include "fl/exchange.hpp"
#include "fl/secure_agg.hpp"
#include "net/bus.hpp"
#include "net/topology.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/records.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace pfdrl;

  // Phase 1: the per-round board and the shared-average memo under the
  // round engine at 4 workers and 8 shards (tests/exchange_stress.hpp):
  // payload handles written by one shard's publish, read by every other
  // shard's apply and released by the round's last apply — lifetime bugs
  // in the shared buffers are exactly what ASan would catch here.
  {
    util::ThreadPool pool(4);
    const std::vector<stress::Case> cases = stress::board_cases();
    const int checked = stress::check_cases(pool, cases, /*reps=*/4);
    std::printf("asan stress: %d pipelined reps matched the oracle\n",
                checked);
  }

  // Phase 2: exchange rounds hammered from pool workers, each worker
  // with its own bus + one-round driver (each round builds and tears
  // down a StagedExchange session; this stresses allocation/teardown,
  // the star hub step and the secure-masking path).
  {
    util::ThreadPool pool(4);
    obs::MetricsRegistry reg;
    const fl::SecureAggregator aggregator;
    constexpr std::size_t kJobs = 64;
    pool.parallel_for(0, kJobs, [&](std::size_t j) {
      const std::size_t n = 2 + j % 4;
      std::vector<std::vector<double>> params(n, std::vector<double>(48));
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t i = 0; i < 48; ++i) {
          params[a][i] = static_cast<double>(a + i + j);
        }
      }
      const auto kind = j % 2 == 0 ? net::TopologyKind::kFullMesh
                                   : net::TopologyKind::kStar;
      net::MessageBus bus(net::Topology(kind, n));
      fl::ParamExchange::Options options;
      options.metrics = &reg;
      if (j % 3 == 0 && kind == net::TopologyKind::kFullMesh) {
        options.secure = &aggregator;
      }
      fl::ParamExchange exchange(bus, options);
      std::vector<fl::ExchangeItem> items;
      for (std::size_t a = 0; a < n; ++a) {
        items.push_back({.agent = static_cast<net::AgentId>(a),
                         .device_type = 1,
                         .send = std::span<const double>(params[a]).subspan(0, 32),
                         .in_place = params[a]});
      }
      const auto stats = exchange.round(items, j, {});
      if (stats.items_averaged != n) {
        std::fprintf(stderr, "FAIL: job %zu averaged %llu of %zu items\n", j,
                     static_cast<unsigned long long>(stats.items_averaged), n);
        std::abort();
      }
    });
    if (reg.counter("exchange.rounds").value() != kJobs) {
      std::fprintf(stderr, "FAIL: exchange round count wrong\n");
      return 1;
    }
  }

  // Phase 3: hostile-input sweep over the two binary parsers. Both read
  // untrusted length prefixes; every truncation point and every single
  // bit flip must end in a clean throw or an intact payload — ASan turns
  // any out-of-bounds read into a hard failure.
  {
    nn::Checkpoint ckpt;
    ckpt.signature = "mlp:6-32x2-3:relu";
    for (int i = 0; i < 64; ++i) ckpt.parameters.push_back(0.25 * i);
    const auto ckpt_bytes = nn::serialize_checkpoint(ckpt);

    util::RecordWriter writer;
    writer.append(ckpt_bytes);
    writer.append(std::vector<std::uint8_t>{1, 2, 3});
    const auto& rec_bytes = writer.bytes();

    const auto fuzz_checkpoint = [](std::span<const std::uint8_t> bytes) {
      try {
        (void)nn::deserialize_checkpoint(bytes);
      } catch (const std::runtime_error&) {
      }
    };
    const auto fuzz_records = [](std::span<const std::uint8_t> bytes) {
      try {
        util::RecordReader reader(bytes);
        while (reader.next().has_value()) {
        }
      } catch (const std::runtime_error&) {
      }
    };
    for (std::size_t cut = 0; cut <= ckpt_bytes.size(); ++cut) {
      fuzz_checkpoint({ckpt_bytes.data(), cut});
    }
    for (std::size_t cut = 0; cut <= rec_bytes.size(); ++cut) {
      fuzz_records({rec_bytes.data(), cut});
    }
    for (std::size_t byte = 0; byte < ckpt_bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = ckpt_bytes;
        flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
        fuzz_checkpoint(flipped);
      }
    }
    for (std::size_t byte = 0; byte < rec_bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = rec_bytes;
        flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
        fuzz_records(flipped);
      }
    }
  }

  std::printf("asan stress ok\n");
  return 0;
}
