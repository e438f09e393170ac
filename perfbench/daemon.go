package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one tetrisd process listening on loopback, with its stderr
// captured line by line.
type daemon struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string
	exited      chan struct{} // closed when stderr reaches EOF

	mu     sync.Mutex
	stderr []string
}

// startDaemon launches tetrisd with the given flags on ephemeral
// loopback ports and waits until both listeners are up.
func startDaemon(bin string, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, flags...)
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	// The kernel kills tetrisd if this process dies first, so no server
	// outlives a crashed or interrupted benchmark.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan struct{})
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(errPipe)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr = append(d.stderr, line)
			if a, ok := strings.CutPrefix(line, "tetrisd: listening on "); ok {
				d.addr = a
			}
			if a, ok := strings.CutPrefix(line, "tetrisd: metrics on "); ok {
				d.metricsAddr = a
			}
			up := d.addr != "" && d.metricsAddr != ""
			d.mu.Unlock()
			if up && !signalled {
				signalled = true
				close(ready)
			}
		}
		io.Copy(io.Discard, errPipe)
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.exited:
		d.kill()
		return nil, fmt.Errorf("tetrisd exited during start-up:\n%s", strings.Join(d.log(), "\n"))
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("tetrisd did not start listening within 60s")
	}
}

// kill ends the process with SIGKILL and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.cmd.Wait()
}

func (d *daemon) log() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.stderr...)
}

// peakRSSMB is the process's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// clockTicks is the unit of /proc's CPU times (USER_HZ).
const clockTicks = 100

// cpuSeconds is the user plus system CPU time the process has used.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", rest)
	}
	return (utime + stime) / clockTicks, nil
}

// addCPU reports the server's CPU time per timed request, which unlike
// latency does not grow when other tenants take the machine's CPUs.
// start and end are cpuSeconds readings around the timed phase.
func (o *outcome) addCPU(start, end float64, ops int) {
	o.add("server_cpu_ms_per_op", "ms", (end-start)*1e3/float64(max(ops, 1)), ops)
}

// scrape reads /metrics and returns every sample keyed by its series
// name including labels, e.g. `tetris_admission_wait_seconds_sum`.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds up every series of the named metric, across labels.
func sumSeries(m map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
