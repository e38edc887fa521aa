package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ErrGate marks a broken contract found by an experiment that drives the
// built binaries or checks an invariant (an item not completed, a warm
// batch not cache-served, a daemon answer that differs from the CLI's,
// an unclean shutdown). canary-bench exits 1 on it and 2 on any other
// error.
var ErrGate = errors.New("gate failed")

func gatef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrGate, fmt.Sprintf(format, args...))
}

// binaries are the programs built from this module that the serve,
// sessions, fleet and chaos experiments spawn.
type binaries struct{ daemon, router, cli string }

// buildBinaries compiles canaryd, canary-router and the canary CLI from
// the module that holds the working directory into dir, with one go
// build.
func buildBinaries(dir string) (binaries, error) {
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"canary/cmd/canaryd", "canary/cmd/canary-router", "canary/cmd/canary").CombinedOutput()
	if err != nil {
		return binaries{}, fmt.Errorf("building canaryd, canary-router and canary: %v\n%s", err, out)
	}
	return binaries{
		daemon: filepath.Join(dir, "canaryd"),
		router: filepath.Join(dir, "canary-router"),
		cli:    filepath.Join(dir, "canary"),
	}, nil
}

// proc is one spawned canaryd or canary-router process.
type proc struct {
	url    string // http://<addr> from its "… listening on <addr>" line
	cmd    *exec.Cmd
	exited bool
}

// startProc runs bin with args, its environment extended by env, reads
// the address from its first stdout line and keeps the rest drained.
func startProc(bin string, env []string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	_, addr, ok := strings.Cut(strings.TrimSpace(line), " listening on ")
	if err != nil || !ok {
		p.kill()
		return nil, fmt.Errorf("%s did not come up: %q (%v)", filepath.Base(bin), line, err)
	}
	p.url = "http://" + addr
	go io.Copy(io.Discard, r)
	return p, nil
}

// kill SIGKILLs the process and reaps it; a no-op once it has exited.
func (p *proc) kill() {
	if p.exited {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.exited = true
}

// signal delivers sig (SIGSTOP, SIGCONT) to the process.
func (p *proc) signal(sig syscall.Signal) { p.cmd.Process.Signal(sig) }

// terminate sends SIGTERM and waits for the process to exit, which must
// happen with status 0 within timeout.
func (p *proc) terminate(timeout time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exit := make(chan error, 1)
	go func() { exit <- p.cmd.Wait() }()
	select {
	case err := <-exit:
		p.exited = true
		return err
	case <-time.After(timeout):
		return fmt.Errorf("no exit within %v of SIGTERM", timeout)
	}
}

// freeAddrs picks n distinct loopback addresses by holding listeners on
// all of them at once, then frees them for the spawned processes.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// call sends one request with an optional JSON body and returns the
// status, the Retry-After header and the body.
func call(method, url string, body []byte) (status int, retryAfter string, buf []byte, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	buf, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), buf, err
}

// scrapeCounters reads the named plain-text counters from url's
// /metrics page; a name may carry its labels, as in
// canaryd_stage_latency_seconds_count{stage="parse"}. A name missing
// from the page is an error: a renamed metric must fail the run, not
// zero a field of its results.
func scrapeCounters(url string, names ...string) (map[string]uint64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	page := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			page[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		v, ok := page[n]
		if !ok {
			return nil, fmt.Errorf("%s/metrics has no counter %s", url, n)
		}
		out[n] = v
	}
	return out, nil
}

// expectCounters scrapes url's /metrics and fails the gate on the first
// counter whose value differs from want.
func expectCounters(url string, want map[string]uint64) error {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	got, err := scrapeCounters(url, names...)
	if err != nil {
		return gatef("%v", err)
	}
	for _, n := range names {
		if got[n] != want[n] {
			return gatef("%s = %d, want %d", n, got[n], want[n])
		}
	}
	return nil
}

// workerFleet is n canaryd workers on fixed loopback addresses, each
// started with -join over every worker's URL and advertising its own,
// so the fleet forms by gossip alone. A restarted worker keeps its
// address, and so its identity.
type workerFleet struct {
	bins  binaries
	addrs []string
	urls  []string
	procs []*proc
}

func newWorkerFleet(bins binaries, n int) (*workerFleet, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	f := &workerFleet{bins: bins, addrs: addrs, urls: make([]string, n), procs: make([]*proc, n)}
	for i, a := range addrs {
		f.urls[i] = "http://" + a
	}
	return f, nil
}

// start (re)spawns worker i with its environment extended by env and
// args after the membership flags.
func (f *workerFleet) start(i int, env []string, args ...string) (err error) {
	f.procs[i], err = startProc(f.bins.daemon, env, append([]string{"-addr", f.addrs[i],
		"-join", strings.Join(f.urls, ","), "-advertise", f.urls[i]}, args...)...)
	return err
}

// startRouter spawns a canary-router that learns the fleet from the
// same seed list, with args after the membership flags.
func (f *workerFleet) startRouter(args ...string) (*proc, error) {
	return startProc(f.bins.router, nil, append([]string{"-addr", "127.0.0.1:0",
		"-join", strings.Join(f.urls, ",")}, args...)...)
}

// kill SIGKILLs every worker still running.
func (f *workerFleet) kill() {
	for _, p := range f.procs {
		if p != nil {
			p.kill()
		}
	}
}
