#include "loadgen.hh"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** How long before a due time the open-loop sender stops sleeping. */
constexpr int64_t kSpinNs = 30'000;

} // namespace

std::string_view
FrameReader::next(int timeout_ms, bool *timed_out)
{
    for (;;) {
        if (end_ - begin_ >= 4) {
            const uint32_t len = getRaw<uint32_t>(&buf_[begin_]);
            if (len > (1u << 20))
                return {};
            if (end_ - begin_ >= 4 + len) {
                std::string_view payload(&buf_[begin_ + 4], len);
                begin_ += 4 + len;
                return payload;
            }
            if (buf_.size() < 4 + len)
                buf_.resize(4 + len);
        }
        if (begin_ > 0) {
            std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
            end_ -= begin_;
            begin_ = 0;
        }
        if (timeout_ms >= 0) {
            pollfd p{fd_, POLLIN, 0};
            if (poll(&p, 1, timeout_ms) == 0) {
                *timed_out = true;
                return {};
            }
        }
        const ssize_t r = recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return {};
        end_ += static_cast<size_t>(r);
    }
}

bool
isOkAnswer(std::string_view payload)
{
    return payload.size() == 1 + kAnswerBodyBytes &&
           static_cast<uint8_t>(payload[0]) == kStatusOk;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

int64_t
processCpuNs(long pid)
{
    // First field of /proc/PID/task/TID/schedstat: nanoseconds on CPU.
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    DIR *tasks = opendir(dir.c_str());
    if (tasks == nullptr)
        return 0;
    int64_t total = 0;
    while (dirent *entry = readdir(tasks)) {
        if (entry->d_name[0] == '.')
            continue;
        std::ifstream in(dir + "/" + entry->d_name + "/schedstat");
        long long ns = 0;
        if (in >> ns)
            total += ns;
    }
    closedir(tasks);
    return total;
}

int
connectTo(int port)
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
        close(fd);
        return -1;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
writeAll(int fd, const char *data, size_t n)
{
    while (n > 0) {
        const ssize_t w = send(fd, data, n, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        data += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

FrameRing::FrameRing(std::string frames) : bytes(std::move(frames))
{
    size_t at = 0;
    while (at + 4 <= bytes.size()) {
        offsets.push_back(at);
        at += 4 + getRaw<uint32_t>(&bytes[at]);
    }
    offsets.push_back(std::min(at, bytes.size()));
}

void
AnswerTable::record(uint32_t idx, std::string_view body)
{
    if (!seen[idx]) {
        seen[idx] = 1;
        std::memcpy(first[idx].data(), body.data(), kAnswerBodyBytes);
    } else if (std::memcmp(first[idx].data(), body.data(),
                           kAnswerBodyBytes) != 0) {
        ++mismatches;
    }
}

void
AnswerTable::merge(const AnswerTable &other)
{
    mismatches += other.mismatches;
    for (size_t i = 0; i < first.size(); ++i) {
        if (other.seen[i])
            record(static_cast<uint32_t>(i),
                   std::string_view(other.first[i].data(), kAnswerBodyBytes));
    }
}

ClosedLoop
runClosedLoop(int port, const FrameRing &ring, const uint32_t *index,
              size_t conns, size_t window, double seconds, AnswerTable *table,
              std::atomic<uint64_t> *progress)
{
    std::vector<AnswerTable> tables;
    if (table != nullptr)
        tables.assign(conns, AnswerTable(table->first.size()));
    std::vector<uint64_t> answered(conns, 0), failed(conns, 0);
    std::vector<int64_t> finished(conns, 0);
    const int64_t start = nowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            const int fd = connectTo(port);
            if (fd < 0) {
                failed[c] = window;
                finished[c] = nowNs();
                return;
            }
            FrameReader reader(fd);
            // Connections start at different points of the ring.
            size_t at = (c * ring.size() / conns) / window * window;
            while (nowNs() < deadline) {
                if (!writeAll(fd, ring.frame(at), ring.span(at, window))) {
                    failed[c] += window;
                    break;
                }
                for (size_t k = 0; k < window; ++k) {
                    std::string_view payload = reader.next();
                    if (!isOkAnswer(payload)) {
                        ++failed[c];
                        if (payload.empty())
                            break;
                        continue;
                    }
                    if (table != nullptr)
                        tables[c].record(index[at + k], payload.substr(1));
                    ++answered[c];
                }
                if (progress != nullptr)
                    progress->fetch_add(window, std::memory_order_relaxed);
                at = (at + window) % ring.size();
            }
            finished[c] = nowNs();
            close(fd);
        });
    }
    for (auto &t : threads)
        t.join();
    ClosedLoop out;
    for (size_t c = 0; c < conns; ++c) {
        out.answered += answered[c];
        out.failed += failed[c];
        if (table != nullptr)
            table->merge(tables[c]);
    }
    const int64_t end = *std::max_element(finished.begin(), finished.end());
    out.wallSeconds = static_cast<double>(end - start) / 1e9;
    return out;
}

SliceSampler::SliceSampler(const std::atomic<uint64_t> &progress, long pid,
                           double period, size_t limit)
{
    thread_ = std::thread([this, &progress, pid, period, limit] {
        const auto step = std::chrono::nanoseconds(
            static_cast<int64_t>(period * 1e9));
        auto tick = Clock::now();
        uint64_t ops = progress.load(std::memory_order_relaxed);
        int64_t cpu = processCpuNs(pid);
        int64_t at = nowNs();
        while (slices_.size() < limit) {
            tick += step;
            std::this_thread::sleep_until(tick);
            if (stop_.load())
                break;
            const uint64_t ops_now = progress.load(std::memory_order_relaxed);
            const int64_t cpu_now = processCpuNs(pid);
            const int64_t at_now = nowNs();
            slices_.push_back({ops_now - ops,
                               static_cast<double>(at_now - at) / 1e9,
                               static_cast<double>(cpu_now - cpu) / 1e9});
            ops = ops_now;
            cpu = cpu_now;
            at = at_now;
        }
    });
}

const std::vector<Slice> &
SliceSampler::stop()
{
    stop_.store(true);
    if (thread_.joinable())
        thread_.join();
    return slices_;
}

std::string
SliceSampler::json() const
{
    std::string out = "[";
    char buf[96];
    for (size_t i = 0; i < slices_.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s[%llu, %.6f, %.6f]",
                      i ? ", " : "",
                      static_cast<unsigned long long>(slices_[i].ops),
                      slices_[i].seconds, slices_[i].cpuSeconds);
        out += buf;
    }
    return out + "]";
}

double
OpenLoop::latencyPercentile(double p)
{
    if (latencyUs.empty())
        return 0.0;
    std::sort(latencyUs.begin(), latencyUs.end());
    const size_t at =
        std::min(latencyUs.size() - 1,
                 static_cast<size_t>(p * static_cast<double>(latencyUs.size())));
    return latencyUs[at];
}

double
OpenLoop::meanLagUs() const
{
    double sum = 0.0;
    for (double v : lagUs)
        sum += v;
    return lagUs.empty() ? 0.0 : sum / static_cast<double>(lagUs.size());
}

std::string
OpenLoop::json(const char *prefix)
{
    char out[512];
    std::snprintf(out, sizeof(out),
                  "\"%s_n\": %llu, \"%s_failed\": %llu, "
                  "\"%s_p50_us\": %.3f, \"%s_p90_us\": %.3f, "
                  "\"%s_p99_us\": %.3f, \"%s_lag_us\": %.3f",
                  prefix, static_cast<unsigned long long>(sent), prefix,
                  static_cast<unsigned long long>(failed), prefix,
                  latencyPercentile(0.5), prefix, latencyPercentile(0.9),
                  prefix, latencyPercentile(0.99), prefix, meanLagUs());
    return out;
}

bool
runOpenLoop(int port, const FrameRing &ring, const uint32_t *index,
            double rate, uint64_t limit, const std::atomic<bool> &stop,
            AnswerTable *table, OpenLoop *out)
{
    const int fd = connectTo(port);
    if (fd < 0)
        return false;
    prctl(PR_SET_TIMERSLACK, 1UL);  // This thread only.
    const double interval_ns = 1e9 / rate;
    const int64_t t0 = nowNs() + 1'000'000;
    auto due = [&](uint64_t i) {
        return t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    };
    std::atomic<uint64_t> published{0};
    std::atomic<bool> done{false};
    uint64_t received = 0;

    std::thread receiver([&] {
        FrameReader reader(fd);
        uint64_t j = 0;
        for (;;) {
            if (done.load(std::memory_order_acquire) &&
                j == published.load(std::memory_order_acquire))
                break;
            bool timed_out = false;
            std::string_view payload = reader.next(20, &timed_out);
            if (timed_out)
                continue;
            if (payload.empty())
                break;
            const int64_t t = nowNs();
            if (!isOkAnswer(payload))
                ++out->failed;
            else if (table != nullptr)
                table->record(index[j % ring.size()], payload.substr(1));
            out->latencyUs.push_back(static_cast<double>(t - due(j)) / 1e3);
            ++j;
        }
        received = j;
    });

    std::string batch;
    uint64_t i = 0;
    while (i < limit && !stop.load(std::memory_order_relaxed)) {
        const int64_t now = nowNs();
        batch.clear();
        uint64_t end = i;
        while (end < limit && due(end) <= now) {
            const size_t k = end % ring.size();
            batch.append(ring.frame(k), ring.span(k, 1));
            out->lagUs.push_back(static_cast<double>(now - due(end)) / 1e3);
            ++end;
        }
        if (end > i) {
            published.store(end, std::memory_order_release);
            if (!writeAll(fd, batch.data(), batch.size()))
                break;
            i = end;
            continue;
        }
        // Sleep to just short of the next due time, then spin: a plain
        // sleep overshoots by the timer slack, which would be charged
        // to every query as latency.
        const int64_t wait = due(i) - nowNs();
        if (wait > kSpinNs)
            std::this_thread::sleep_for(std::chrono::nanoseconds(wait - kSpinNs));
    }
    // A failed write leaves its frames published: they count as sent
    // and, unanswered, as failed.
    out->sent = published.load();
    done.store(true, std::memory_order_release);
    receiver.join();
    close(fd);
    out->failed += out->sent - received;
    return true;
}

} // namespace perfbench
