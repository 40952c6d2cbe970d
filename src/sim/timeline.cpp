#include "sim/timeline.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>

#include "obs/json.hpp"

namespace bvc::sim {

namespace {

constexpr double kMicrosPerSecond = 1e6;

}  // namespace

void Timeline::set_node_label(std::size_t node, std::string label) {
  if (labels_.size() <= node) {
    labels_.resize(node + 1);
  }
  labels_[node] = std::move(label);
}

void Timeline::record_find(double now, std::size_t node, std::size_t miner,
                           chain::BlockId block, chain::ByteSize size) {
  events_.push_back(Event{Kind::kFind, now * kMicrosPerSecond, 0.0,
                          static_cast<std::uint32_t>(node), block,
                          static_cast<std::uint64_t>(miner),
                          static_cast<std::uint64_t>(size)});
}

void Timeline::record_relay(double sent, double arrival, std::size_t to,
                            std::size_t from, chain::BlockId block) {
  events_.push_back(Event{Kind::kRelay, sent * kMicrosPerSecond,
                          std::max(0.0, arrival - sent) * kMicrosPerSecond,
                          static_cast<std::uint32_t>(to), block,
                          static_cast<std::uint64_t>(from), 0});
}

void Timeline::record_accept(double now, std::size_t node,
                             chain::BlockId block) {
  events_.push_back(Event{Kind::kAccept, now * kMicrosPerSecond, 0.0,
                          static_cast<std::uint32_t>(node), block, 0, 0});
}

void Timeline::record_fork_switch(double now, std::size_t node,
                                  chain::BlockId from_tip,
                                  chain::BlockId to_tip) {
  events_.push_back(Event{Kind::kForkSwitch, now * kMicrosPerSecond, 0.0,
                          static_cast<std::uint32_t>(node), to_tip, from_tip,
                          0});
}

void Timeline::write_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n ";
  };

  // One labeled track per node that appears anywhere in the recording.
  std::uint32_t max_node = 0;
  for (const Event& event : events_) {
    max_node = std::max(max_node, event.node);
  }
  const std::size_t tracks =
      std::max<std::size_t>(labels_.size(), events_.empty() ? 0 : max_node + 1);
  for (std::size_t node = 0; node < tracks; ++node) {
    const std::string label =
        node < labels_.size() && !labels_[node].empty()
            ? labels_[node]
            : "node-" + std::to_string(node);
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << node
        << ",\"args\":{\"name\":" << obs::json_quoted(label) << "}}";
  }

  for (const Event& event : events_) {
    sep();
    switch (event.kind) {
      case Kind::kFind:
        out << "{\"name\":\"find b" << event.block
            << "\",\"cat\":\"find\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
            << event.ts_us << ",\"pid\":1,\"tid\":" << event.node
            << ",\"args\":{\"block\":" << event.block
            << ",\"miner\":" << event.extra << ",\"size\":" << event.aux
            << "}}";
        break;
      case Kind::kRelay:
        out << "{\"name\":\"relay b" << event.block
            << "\",\"cat\":\"relay\",\"ph\":\"X\",\"ts\":" << event.ts_us
            << ",\"dur\":" << event.dur_us << ",\"pid\":1,\"tid\":"
            << event.node << ",\"args\":{\"block\":" << event.block
            << ",\"from\":" << event.extra << "}}";
        break;
      case Kind::kAccept:
        out << "{\"name\":\"accept b" << event.block
            << "\",\"cat\":\"validation\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
            << event.ts_us << ",\"pid\":1,\"tid\":" << event.node
            << ",\"args\":{\"block\":" << event.block << "}}";
        break;
      case Kind::kForkSwitch:
        out << "{\"name\":\"fork switch\",\"cat\":\"fork\",\"ph\":\"i\","
            << "\"s\":\"t\",\"ts\":" << event.ts_us << ",\"pid\":1,\"tid\":"
            << event.node << ",\"args\":{\"from_tip\":" << event.extra
            << ",\"to_tip\":" << event.block << "}}";
        break;
    }
  }
  out << "\n]}\n";
}

}  // namespace bvc::sim
