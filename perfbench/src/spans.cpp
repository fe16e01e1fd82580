#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

namespace perfbench
{

namespace
{

std::atomic<Recorder *> g_recorder{nullptr};
thread_local uint64_t t_parent = 0;
thread_local int64_t t_job = -1;

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t index = next.fetch_add(1);
    return index;
}

} // namespace

const char *
phaseName(Phase phase)
{
    switch (phase) {
    case Phase::Setup:
        return "setup";
    case Phase::Timed:
        return "timed";
    case Phase::Split:
        return "split";
    }
    return "?";
}

Recorder::Recorder() : origin_(std::chrono::steady_clock::now()) {}

double
Recorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

uint64_t
Recorder::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

void
Recorder::add(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<double>
Recorder::selfTimes() const
{
    std::map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans_.size(); ++i) {
        index[spans_[i].id] = i;
    }
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_) {
        auto it = index.find(s.parent);
        if (it != index.end()) {
            children[it->second].emplace_back(s.start, s.end);
        }
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (auto [a, b] : kids) {
            a = std::max(a, reach);
            b = std::min(b, s.end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

std::string
Recorder::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%llu,\"parent\":%llu,\"job\":%lld,"
                      "\"phase\":\"%s\",\"end\":%.3f}}",
                      i == 0 ? "" : ",", s.name, s.layer, s.tid,
                      s.start * 1e6, (s.end - s.start) * 1e6,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<long long>(s.job), phaseName(s.phase),
                      s.end * 1e6);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

Recorder *
recorder()
{
    return g_recorder.load(std::memory_order_acquire);
}

void
installRecorder(Recorder *rec)
{
    g_recorder.store(rec, std::memory_order_release);
}

JobTag::JobTag(int64_t job) : saved_(t_job) { t_job = job; }

JobTag::~JobTag() { t_job = saved_; }

Scope::Scope(const char *layer, const char *name) : rec_(recorder())
{
    if (rec_ == nullptr) {
        return;
    }
    span_.id = rec_->nextId();
    span_.parent = t_parent;
    span_.job = t_job;
    span_.layer = layer;
    span_.name = name;
    span_.phase = rec_->phase();
    span_.tid = threadIndex();
    saved_parent_ = t_parent;
    t_parent = span_.id;
    span_.start = rec_->now();
}

Scope::~Scope()
{
    if (rec_ == nullptr) {
        return;
    }
    span_.end = rec_->now();
    t_parent = saved_parent_;
    rec_->add(span_);
}

void
SpanSink::onBlock(vepro::trace::TraceBlock &&block)
{
    if (mode_ == Mode::Replay) {
        deliver(block);
        return;
    }
    Scope scope(layer_, block_name_);
    inner_.onBlock(std::move(block));
}

void
SpanSink::deliver(const vepro::trace::TraceBlock &block)
{
    Scope scope(layer_, block_name_);
    vepro::trace::replayBlock(block, inner_);
}

void
SpanSink::flush()
{
    Scope scope(layer_, flush_name_);
    inner_.flush();
}

void
SpanMux::onOp(const vepro::trace::TraceOp &op)
{
    for (SpanSink *s : sinks_) {
        s->onOp(op);
    }
}

void
SpanMux::onBlock(vepro::trace::TraceBlock &&block)
{
    for (SpanSink *s : sinks_) {
        s->deliver(block);
    }
}

void
SpanMux::flush()
{
    for (SpanSink *s : sinks_) {
        s->flush();
    }
}

} // namespace perfbench
