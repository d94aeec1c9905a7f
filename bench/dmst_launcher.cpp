// Multi-process launcher for the socket backend: shards one
// scenario_runner (or any rank-aware dmst binary) invocation across N
// local processes and merges their per-rank JSONL into one file.
//
//   dmst_launcher --procs=4 --json=out.jsonl --
//       ./scenario_runner --algo=boruvka --families=er --sizes=256
//       --engines=socket --verify=model
//
// Everything after `--` is the child command. The launcher appends
// `--procs=N --rank=i --base_port=P --json=out.jsonl.rank<i>` to each
// child, so the command must not set those flags itself. With
// --base_port=0 (the default) the launcher probes for N consecutive free
// TCP ports.
//
// All children are waited on; if any exits non-zero (or dies on a signal)
// the rest are killed and that status is propagated. On success the rank
// files are concatenated in rank order into --json (so downstream tools
// see one JSONL stream per launch) and kept on disk for artifact upload.

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dmst/util/cli.h"

namespace {

// True iff `port` accepts a TCP bind right now. The probe socket is
// closed before the children start, which leaves a window for another
// process to steal the port — acceptable for a test launcher on
// localhost; a clashing child fails to bind and the launch fails loudly.
bool port_is_free(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    const int rc =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
    return rc == 0;
}

int pick_base_port(int procs)
{
    // Spread concurrent launchers (CI legs, parallel tests) across the
    // range so they rarely probe the same block.
    int start = 20000 + static_cast<int>(::getpid()) % 16384;
    for (int attempt = 0; attempt < 256; ++attempt) {
        int base = start + attempt * procs;
        if (base + procs >= 65536)
            break;
        bool ok = true;
        for (int r = 0; r < procs && ok; ++r)
            ok = port_is_free(base + r);
        if (ok)
            return base;
    }
    return -1;
}

int wait_status_to_exit_code(int status)
{
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return 1;
}

}  // namespace

int main(int argc, char** argv)
{
    dmst::Args args;
    args.define("procs", "2", "processes to launch (one rank each)");
    args.define("base_port", "0",
                "rank r binds base_port+r; 0 = probe for free ports");
    args.define("json", "out.jsonl",
                "merged JSONL output; rank i writes json+'.rank<i>'");

    // Split launcher flags from the child command at `--`.
    std::vector<const char*> own{argv[0]};
    std::vector<std::string> command;
    bool after_dashes = false;
    for (int i = 1; i < argc; ++i) {
        if (!after_dashes && std::strcmp(argv[i], "--") == 0) {
            after_dashes = true;
            continue;
        }
        if (after_dashes)
            command.push_back(argv[i]);
        else
            own.push_back(argv[i]);
    }

    int procs = 0;
    std::string json;
    int base_port = 0;
    try {
        args.parse(static_cast<int>(own.size()), own.data());
        procs = static_cast<int>(args.get_int("procs"));
        base_port = static_cast<int>(args.get_int("base_port"));
        json = args.get("json");
        if (procs < 1 || procs > 512)
            throw std::invalid_argument("--procs must be in [1, 512]");
        if (json.empty() || json == "-")
            throw std::invalid_argument(
                "--json must name a file (rank outputs derive from it)");
        if (command.empty())
            throw std::invalid_argument(
                "missing child command: dmst_launcher [flags] -- <cmd...>");
    } catch (const std::exception& e) {
        std::cerr << "dmst_launcher: " << e.what() << "\n" << args.help();
        return 1;
    }

    if (base_port == 0) {
        base_port = pick_base_port(procs);
        if (base_port < 0) {
            std::cerr << "dmst_launcher: no free port block of " << procs
                      << " found\n";
            return 1;
        }
    }

    std::vector<pid_t> pids(static_cast<std::size_t>(procs), -1);
    std::vector<std::string> rank_files;
    for (int r = 0; r < procs; ++r)
        rank_files.push_back(json + ".rank" + std::to_string(r));

    for (int r = 0; r < procs; ++r) {
        std::vector<std::string> child = command;
        child.push_back("--procs=" + std::to_string(procs));
        child.push_back("--rank=" + std::to_string(r));
        child.push_back("--base_port=" + std::to_string(base_port));
        child.push_back("--json=" + rank_files[static_cast<std::size_t>(r)]);

        pid_t pid = ::fork();
        if (pid < 0) {
            std::cerr << "dmst_launcher: fork: " << std::strerror(errno)
                      << "\n";
            for (pid_t p : pids)
                if (p > 0)
                    ::kill(p, SIGKILL);
            return 1;
        }
        if (pid == 0) {
            std::vector<char*> cargv;
            for (std::string& s : child)
                cargv.push_back(s.data());
            cargv.push_back(nullptr);
            ::execvp(cargv[0], cargv.data());
            std::cerr << "dmst_launcher: exec " << child[0] << ": "
                      << std::strerror(errno) << "\n";
            ::_exit(127);
        }
        pids[static_cast<std::size_t>(r)] = pid;
    }

    int exit_code = 0;
    for (int r = 0; r < procs; ++r) {
        int status = 0;
        if (::waitpid(pids[static_cast<std::size_t>(r)], &status, 0) < 0) {
            exit_code = exit_code ? exit_code : 1;
            continue;
        }
        int code = wait_status_to_exit_code(status);
        if (code != 0) {
            std::cerr << "dmst_launcher: rank " << r << " exited with "
                      << code << "\n";
            if (exit_code == 0) {
                exit_code = code;
                // One rank down stalls the others at their next barrier
                // until their round timeout; don't wait for that.
                for (int s = 0; s < procs; ++s)
                    if (s != r)
                        ::kill(pids[static_cast<std::size_t>(s)], SIGKILL);
            }
        }
    }
    if (exit_code != 0) {
        std::cerr << "dmst_launcher: launch failed; per-rank JSONL kept at "
                  << json << ".rank*\n";
        return exit_code;
    }

    std::ofstream merged(json);
    if (!merged) {
        std::cerr << "dmst_launcher: cannot open " << json
                  << " for writing\n";
        return 1;
    }
    for (int r = 0; r < procs; ++r) {
        std::ifstream in(rank_files[static_cast<std::size_t>(r)]);
        if (!in) {
            std::cerr << "dmst_launcher: rank " << r
                      << " produced no JSONL ("
                      << rank_files[static_cast<std::size_t>(r)] << ")\n";
            return 1;
        }
        // Streaming an empty buffer would set failbit on `merged`.
        if (in.peek() != std::ifstream::traits_type::eof())
            merged << in.rdbuf();
    }
    merged.close();  // a failed flush shows only once the file is closed
    if (!merged) {
        std::cerr << "dmst_launcher: cannot write " << json << "\n";
        return 1;
    }
    std::cerr << "dmst_launcher: " << procs << " ranks"
              << " (ports " << base_port << "-" << (base_port + procs - 1)
              << ") merged into " << json << "\n";
    return 0;
}
