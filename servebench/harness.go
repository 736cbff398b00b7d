package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"f2/internal/server"
	"f2/internal/store"
)

// instance is one in-process, store-backed f2served listening on
// loopback: the same store.Open + server.New + http.Server stack that
// cmd/f2served runs with -data-dir.
type instance struct {
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
}

// startInstance opens the store at dir, boots a server over it (which
// recovers every stored dataset) and starts serving on a fresh loopback
// port.
func startInstance(dir string) (*instance, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{Store: st})
	if err != nil {
		_ = st.Close() // the boot error is the one to report
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		_ = st.Close()
		return nil, err
	}
	in := &instance{
		st:     st,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// close stops the listener, waits for the serve loop to return, then
// drains the server and closes the store, in the order cmd/f2served uses.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.srv.Close()
	if cerr := in.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// storeStats is the store layer's counters at one instant.
type storeStats struct {
	snap store.SnapshotStats
}

func (in *instance) storeStats() storeStats {
	return storeStats{snap: in.st.SnapshotStats()}
}

// client is one HTTP connection to an instance: the transport allows a
// single connection, so requests on one client are serialized the way a
// single keep-alive connection serializes them.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues one request and returns the response body and the time from
// sending the request until the whole body was read. Any status outside
// 2xx is an error that carries the server's message.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, time.Duration, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Since(start), fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, d, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return data, d, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, d, nil
}

// promSnapshot is one scrape of /metrics: every sample keyed by its
// series exactly as rendered, e.g.
// f2_stage_duration_seconds_sum{stage="wal.fsync"}.
type promSnapshot map[string]float64

func (c *client) scrape(ctx context.Context) (promSnapshot, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseProm(data)
}

func parseProm(data []byte) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// procStats is the process-wide runtime and CPU accounting at one instant,
// with the machine's steal and total CPU ticks from /proc/stat (zero
// where that file is unavailable).
type procStats struct {
	at                   time.Time
	cpu, sys             time.Duration // process CPU time, and its kernel-mode part
	faults               int64         // minor page faults
	allocs               uint64
	gcCycles             uint64
	stealTicks, allTicks uint64
}

func readProc() procStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	p := procStats{at: time.Now(), allocs: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.sys = time.Duration(ru.Stime.Nano())
		p.faults = ru.Minflt
	}
	p.stealTicks, p.allTicks = cpuTicks()
	return p
}

// processCPU is the CPU time every thread of this process has used so
// far, in user and kernel mode. Unlike wall-clock time it leaves out the
// time the hypervisor stole from the machine and the time other processes
// held its processors; neighbours on a shared host still slow it through
// the caches they share.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle collects the garbage earlier operations left behind, so that
// every cycle starts from the same heap and pays only for collecting its
// own garbage. A cold boot in production starts from an empty heap too.
func settle() { runtime.GC() }

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the ticks the
// hypervisor stole from this machine, and all ticks.
func cpuTicks() (steal, all uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		all += v
		if i == 7 {
			steal = v
		}
	}
	return steal, all
}

// quantile is the exact q-quantile of xs by linear interpolation between
// the two nearest order statistics. xs need not be sorted; NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// mean is the arithmetic mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// spanLog records client-side spans around every call into the service
// during traced operations, for the trace dump written at the end of a
// traced run. A nil *spanLog records nothing.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// Spans of one operation share a trace id; the service's own span tree
// for a request, when it was asked for one with ?trace=1, hangs under
// the client span of that request.
type span struct {
	Trace   string          `json:"trace"`
	Name    string          `json:"name"`
	StartMs float64         `json:"startMs"`
	DurMs   float64         `json:"durMs"`
	Server  json.RawMessage `json:"server,omitempty"`
}

// add records a finished span.
func (l *spanLog) add(trace, name string, start time.Time, d time.Duration, server json.RawMessage) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Trace: trace, Name: name,
		StartMs: ms(start.Sub(l.t0)), DurMs: ms(d), Server: server,
	})
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// dirDigest hashes a directory tree — every entry's relative path and
// type, and every regular file's size and contents — so a boot that
// rewrote, added or removed anything shows up as a different digest.
func dirDigest(dir string) (string, int64, error) {
	h := sha256.New()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%v\x00", rel, d.Type())
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := io.Copy(h, f)
		if err != nil {
			return err
		}
		total += n
		fmt.Fprintf(h, "\x00%d\x00", n)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), total, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
