#include "sim/launcher.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "base/json.hh"
#include "base/net.hh"
#include "base/strutil.hh"

extern char **environ;

namespace shelf
{

const char *const kWorkerResultMarker = "SHELFSIM-RESULT ";
const char *const kWorkerDumpMarker = "SHELFSIM-DUMP ";

namespace
{

/** Bytes of worker stderr kept for failure reports. */
constexpr size_t kStderrTailBytes = 4096;

/** Hard cap on one newline-delimited serve reply frame. */
constexpr size_t kMaxReplyFrameBytes = 8u << 20;

double
elapsedSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Extract the path from the last line-anchored "SHELFSIM-DUMP "
 * marker in a worker's stderr tail (last wins: a retried panic may
 * announce several dumps, and the final one describes the terminal
 * state).
 */
std::string
findDumpFile(const std::string &stderrTail)
{
    size_t pos = std::string::npos;
    size_t from = 0;
    for (;;) {
        size_t hit = stderrTail.find(kWorkerDumpMarker, from);
        if (hit == std::string::npos)
            break;
        if (hit == 0 || stderrTail[hit - 1] == '\n')
            pos = hit;
        from = hit + 1;
    }
    if (pos == std::string::npos)
        return "";
    size_t start = pos + strlen(kWorkerDumpMarker);
    size_t end = stderrTail.find('\n', start);
    return stderrTail.substr(
        start,
        end == std::string::npos ? std::string::npos : end - start);
}

void
appendTail(std::string &tail, const char *data, size_t n)
{
    tail.append(data, n);
    if (tail.size() > kStderrTailBytes)
        tail.erase(0, tail.size() - kStderrTailBytes);
}

} // namespace

LocalSpawnLauncher::LocalSpawnLauncher(std::string workerBinary_,
                                       std::string dumpDir_)
    : workerBinary(std::move(workerBinary_)),
      dumpDir(std::move(dumpDir_))
{
}

/*
 * Spawn `<bin> --worker '<spec>'`, capture its stdout/stderr, and
 * enforce the wall-clock watchdog: past the deadline the child is
 * SIGKILLed and the attempt marked timed out. Only returns once the
 * child is reaped — no zombies, even on the kill path.
 */
LaunchResult
LocalSpawnLauncher::launch(const std::string &specJson,
                           double timeoutSeconds)
{
    LaunchResult at;

    // Per-spawn environment: SHELFSIM_DUMP_DIR tells the worker
    // where to write crash dumps. Built as a private envp rather
    // than via setenv() because launch() runs concurrently on pool
    // threads and setenv() is not thread-safe.
    std::string dumpVar;
    std::vector<char *> envp;
    for (char **e = environ; *e; ++e) {
        if (strncmp(*e, "SHELFSIM_DUMP_DIR=", 18) != 0)
            envp.push_back(*e);
    }
    if (!dumpDir.empty()) {
        dumpVar = "SHELFSIM_DUMP_DIR=" + dumpDir;
        envp.push_back(dumpVar.data());
    }
    envp.push_back(nullptr);

    // Close-on-exec, so that workers spawned concurrently from other
    // pool threads do not inherit this attempt's pipe ends: a copy of
    // the write end held by a hung sibling would withhold EOF from
    // this worker's reader until the sibling is killed. The dup2()
    // file actions below give the child its own, inheritable copies.
    int outPipe[2], errPipe[2];
    if (pipe2(outPipe, O_CLOEXEC) != 0) {
        at.exitCode = 127;
        at.stderrTail = csprintf("pipe: %s", strerror(errno));
        return at;
    }
    if (pipe2(errPipe, O_CLOEXEC) != 0) {
        at.exitCode = 127;
        at.stderrTail = csprintf("pipe: %s", strerror(errno));
        close(outPipe[0]);
        close(outPipe[1]);
        return at;
    }

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, outPipe[1], 1);
    posix_spawn_file_actions_adddup2(&fa, errPipe[1], 2);
    posix_spawn_file_actions_addclose(&fa, outPipe[0]);
    posix_spawn_file_actions_addclose(&fa, outPipe[1]);
    posix_spawn_file_actions_addclose(&fa, errPipe[0]);
    posix_spawn_file_actions_addclose(&fa, errPipe[1]);

    std::string arg0 = workerBinary, arg1 = "--worker",
                arg2 = specJson;
    char *argv[] = { arg0.data(), arg1.data(), arg2.data(),
                     nullptr };

    pid_t pid = -1;
    int rc = posix_spawn(&pid, workerBinary.c_str(), &fa, nullptr,
                         argv, envp.data());
    posix_spawn_file_actions_destroy(&fa);
    close(outPipe[1]);
    close(errPipe[1]);
    if (rc != 0) {
        close(outPipe[0]);
        close(errPipe[0]);
        at.exitCode = 127;
        at.stderrTail = csprintf("spawn '%s': %s",
                                 workerBinary.c_str(), strerror(rc));
        return at;
    }

    auto t0 = std::chrono::steady_clock::now();
    bool killed = false;
    std::string out;
    struct pollfd fds[2] = { { outPipe[0], POLLIN, 0 },
                             { errPipe[0], POLLIN, 0 } };
    int openFds = 2;
    while (openFds > 0) {
        int timeout_ms = -1;
        if (timeoutSeconds > 0 && !killed) {
            double left = timeoutSeconds - elapsedSince(t0);
            timeout_ms =
                left > 0 ? static_cast<int>(left * 1000) + 1 : 0;
        }
        int n = poll(fds, 2, timeout_ms);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0) {
            // Watchdog: the job overran its budget. Kill the worker
            // and keep draining the pipes until EOF so the process
            // can be reaped. SIGKILL also reaps SIGSTOPped workers —
            // a stopped child keeps its pipes open and produces no
            // output, so it arrives here through the same timeout.
            kill(pid, SIGKILL);
            killed = true;
            at.timedOut = true;
            continue;
        }
        for (auto &p : fds) {
            if (p.fd < 0 ||
                !(p.revents & (POLLIN | POLLHUP | POLLERR))) {
                continue;
            }
            char buf[4096];
            ssize_t got = read(p.fd, buf, sizeof(buf));
            if (got > 0) {
                if (p.fd == outPipe[0])
                    out.append(buf, static_cast<size_t>(got));
                else
                    appendTail(at.stderrTail, buf,
                               static_cast<size_t>(got));
            } else {
                close(p.fd);
                p.fd = -1;
                --openFds;
            }
        }
    }
    if (fds[0].fd >= 0)
        close(fds[0].fd);
    if (fds[1].fd >= 0)
        close(fds[1].fd);

    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(status))
        at.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        at.termSignal = WTERMSIG(status);

    at.dumpFile = findDumpFile(at.stderrTail);

    if (at.timedOut || at.exitCode != 0 || at.termSignal != 0)
        return at;

    size_t pos = out.rfind(kWorkerResultMarker);
    if (pos == std::string::npos ||
        (pos > 0 && out[pos - 1] != '\n')) {
        at.stderrTail += "[worker printed no result payload]";
        at.exitCode = at.exitCode ? at.exitCode : 125;
        return at;
    }
    size_t start = pos + strlen(kWorkerResultMarker);
    size_t end = out.find('\n', start);
    std::string payload = out.substr(
        start, end == std::string::npos ? std::string::npos
                                        : end - start);
    JsonValue probe;
    if (!tryParseJson(payload, probe, nullptr)) {
        at.stderrTail += "[worker result payload truncated]";
        at.exitCode = 125;
        return at;
    }
    at.resultJson = std::move(payload);
    at.ok = true;
    return at;
}

RemoteServeLauncher::RemoteServeLauncher(std::string name,
                                         std::string socketPath,
                                         unsigned connectAttempts_,
                                         double connectBackoff_)
    : name_(std::move(name)), socketPath_(std::move(socketPath)),
      connectAttempts(connectAttempts_),
      connectBackoffSeconds(connectBackoff_)
{
}

RemoteServeLauncher::~RemoteServeLauncher()
{
    disconnect();
}

bool
RemoteServeLauncher::ensureConnected(std::string &err)
{
    if (fd >= 0)
        return true;
    fd = connectUnixRetry(socketPath_, connectAttempts,
                          connectBackoffSeconds, err);
    return fd >= 0;
}

void
RemoteServeLauncher::disconnect()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

LaunchResult
RemoteServeLauncher::launch(const std::string &specJson,
                            double timeoutSeconds)
{
    LaunchResult at;
    auto transportFail = [&](const std::string &what,
                             bool deadline) -> LaunchResult & {
        at = LaunchResult();
        at.transportFailure = true;
        at.timedOut = deadline;
        at.error = csprintf("node %s (%s): %s", name_.c_str(),
                            socketPath_.c_str(), what.c_str());
        // Framing may be lost mid-reply; the stream is unusable.
        disconnect();
        return at;
    };

    std::string err;
    if (!ensureConnected(err))
        return transportFail(err, false);
    // Always (re)set the deadline: 0 restores blocking reads, and a
    // deadline left over from a previous call must not leak in.
    if (!setRecvTimeout(fd, timeoutSeconds, err))
        return transportFail(err, false);

    if (!writeAll(fd, "{\"cmd\":\"run\",\"jobs\":[" + specJson +
                          "]}\n")) {
        return transportFail("write failed", false);
    }

    // Expect one per-job reply line, then the batch summary line.
    LineReader reader(fd, kMaxReplyFrameBytes);
    bool haveReply = false;
    for (;;) {
        std::string line;
        switch (reader.readLine(line)) {
          case LineReader::Status::Line:
            break;
          case LineReader::Status::Timeout:
            return transportFail("read deadline expired", true);
          case LineReader::Status::Eof:
            return transportFail("server closed the connection",
                                 false);
          case LineReader::Status::Oversized:
            return transportFail("oversized reply frame", false);
          case LineReader::Status::Error:
          default:
            return transportFail("read failed", false);
        }
        JsonValue doc;
        if (!tryParseJson(line, doc, nullptr) || !doc.isObject())
            return transportFail("unparseable reply", false);
        if (doc.find("done")) {
            if (!haveReply)
                return transportFail("summary before reply", false);
            return at;
        }
        const JsonValue *job = doc.find("job");
        if (!job) {
            // A top-level error without "job" rejects the whole
            // request (bad spec, oversized frame): that is the
            // job's failure, not the node's.
            const JsonValue *e = doc.find("error");
            at.error = e && e->isString()
                ? e->raw : std::string("request rejected");
            at.stderrTail = at.error;
            return at;
        }
        const JsonValue *ok = doc.find("ok");
        if (!ok || !ok->isBool())
            return transportFail("bad per-job reply", false);
        haveReply = true;
        if (ok->boolean) {
            const JsonValue *res = doc.find("result");
            if (!res || !res->isString())
                return transportFail("reply without result", false);
            at.ok = true;
            at.resultJson = res->raw;
        } else {
            if (const JsonValue *e = doc.find("error")) {
                at.error = e->raw;
                // The remote supervisor's quarantine detail is all
                // the forensics that cross the wire; surface it
                // where failure summaries look.
                at.stderrTail = e->raw;
            }
        }
    }
}

bool
RemoteServeLauncher::healthy(double timeoutSeconds, std::string &err)
{
    // One connect attempt, no retry: the health gate exists to be a
    // cheap, bounded liveness probe, and the caller (the fabric's
    // node loop) already owns the retry-with-backoff policy.
    // Stacking connectUnixRetry's attempts under it would multiply
    // the two schedules.
    if (fd < 0) {
        fd = connectUnix(socketPath_, err);
        if (fd < 0)
            return false;
    }
    if (!setRecvTimeout(fd, timeoutSeconds, err)) {
        disconnect();
        return false;
    }
    if (!writeAll(fd, "{\"cmd\":\"ping\"}\n")) {
        err = "ping write failed";
        disconnect();
        return false;
    }
    LineReader reader(fd, kMaxReplyFrameBytes);
    std::string line;
    if (reader.readLine(line) != LineReader::Status::Line) {
        err = "no ping reply";
        disconnect();
        return false;
    }
    JsonValue doc;
    if (!tryParseJson(line, doc, nullptr) || !doc.find("ok")) {
        err = "bad ping reply";
        disconnect();
        return false;
    }
    return true;
}

} // namespace shelf
