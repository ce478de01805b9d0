#include "spans.hh"

#include <fstream>
#include <iomanip>

namespace hydra::e2e {

const char *
spanNameText(SpanName name)
{
    switch (name) {
      case SpanName::Setup: return "bench.setup";
      case SpanName::TestbedBuild: return "tivo.testbed_build";
      case SpanName::FleetBuild: return "fleet.build";
      case SpanName::Placement: return "fleet.placement";
      case SpanName::CreateChannel: return "core.create_channel";
      case SpanName::Run: return "bench.run";
      case SpanName::Slice: return "exec.slice";
      case SpanName::Pacer: return "bench.pacer";
      case SpanName::PayloadBuild: return "payload.build";
      case SpanName::Write: return "core.write";
      case SpanName::Deliver: return "bench.deliver";
      case SpanName::Export: return "obs.export";
      case SpanName::Teardown: return "bench.teardown";
      case SpanName::Report: return "bench.report";
      case SpanName::Count: break;
    }
    return "?";
}

std::int64_t
Spans::ns(WallClock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

std::int32_t
Spans::open(SpanName name)
{
    const auto index = static_cast<std::int32_t>(records_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back({name, parent, ns(WallClock::now()), 0});
    stack_.push_back(index);
    return index;
}

void
Spans::close(std::int32_t index)
{
    records_[static_cast<std::size_t>(index)].endNs = ns(WallClock::now());
    stack_.pop_back();
}

void
Spans::add(SpanName name, WallClock::time_point start,
           WallClock::time_point end)
{
    if (!enabled_)
        return;
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back({name, parent, ns(start), ns(end)});
}

std::map<SpanName, SpanTotals>
Spans::totals() const
{
    std::map<SpanName, SpanTotals> out;
    std::vector<double> childNs(records_.size(), 0.0);
    for (const SpanRecord &r : records_)
        if (r.parent >= 0)
            childNs[static_cast<std::size_t>(r.parent)] +=
                static_cast<double>(r.endNs - r.startNs);
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord &r = records_[i];
        const auto dur = static_cast<double>(r.endNs - r.startNs);
        SpanTotals &t = out[r.name];
        ++t.count;
        t.totalS += dur / 1e9;
        t.selfS += (dur - childNs[i]) / 1e9;
        t.durationsNs.add(dur);
    }
    return out;
}

double
Spans::topLevelS() const
{
    double total = 0.0;
    for (const SpanRecord &r : records_)
        if (r.parent < 0)
            total += static_cast<double>(r.endNs - r.startNs) / 1e9;
    return total;
}

bool
Spans::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord &r = records_[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << spanNameText(r.name)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<double>(r.startNs) / 1e3
            << ",\"dur\":" << static_cast<double>(r.endNs - r.startNs) / 1e3
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace hydra::e2e
