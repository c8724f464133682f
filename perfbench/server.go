package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one `wideleakfleet -spawn 2` process: the router and both
// replicas share it, so its /proc counters are the whole server's.
type server struct {
	cmd      *exec.Cmd
	started  time.Time
	router   string            // base URL
	replicas map[string]string // replica ID → base URL
	exited   chan error
	stopOnce sync.Once
}

var (
	replicaLine = regexp.MustCompile(`^wideleakfleet: replica (\S+) on (http://\S+)$`)
	routerLine  = regexp.MustCompile(`^wideleakfleet: routing \d+ replicas on (http://\S+)$`)
)

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (100 on every mainstream Linux configuration).
const clockTicks = 100

// startServer boots the fleet process and waits until it announces its
// router address.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-spawn", fmt.Sprint(len(replicaIDs)), "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, replicas: make(map[string]string), exited: make(chan error, 1)}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if m := replicaLine.FindStringSubmatch(line); m != nil {
				s.replicas[m[1]] = m[2]
			} else if m := routerLine.FindStringSubmatch(line); m != nil && !announced {
				s.router = m[1]
				announced = true
				close(ready)
			}
		}
		io.Copy(io.Discard, stdout)
		if !announced {
			close(ready)
		}
		s.exited <- cmd.Wait()
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
	}
	if s.router == "" {
		s.stop()
		return nil, fmt.Errorf("server did not announce its router address")
	}
	return s, nil
}

// stop drains the server with SIGTERM, kills it if it lingers, and waits
// until the process has exited. Calls after the first return at once.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
			return
		case <-time.After(10 * time.Second):
		}
		s.cmd.Process.Kill()
		<-s.exited
	})
}

// cpuTime reads the process's utime+stime.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(raw)
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line: fields
// 14 and 15, counted from the pid, after the parenthesised command name.
func parseStatCPU(raw []byte) (time.Duration, error) {
	line := string(raw)
	f := strings.Fields(line[strings.LastIndexByte(line, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// status reads one kB-valued field (VmHWM, VmRSS) of /proc/<pid>/status.
func (s *server) status(field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseFloat(f[1], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// scrape reads one Prometheus text exposition into sample name (labels
// included) → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			samples[line[:sp]] = v
		}
	}
	return samples, sc.Err()
}

// counters scrapes every replica's /metrics and sums each metric over
// replicas and labels.
func (s *server) counters() (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, base := range s.replicas {
		samples, err := scrape(base + "/metrics")
		if err != nil {
			return nil, err
		}
		for name, v := range samples {
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			sum[name] += v
		}
	}
	return sum, nil
}

// delta subtracts two counter scrapes.
func delta(after, before map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// stealTime reads the machine's CPU time stolen by the hypervisor, the
// eighth value of /proc/stat's cpu line. It is logged next to the
// fixed-rate phase: on a shared host a run can read slow for that reason
// alone.
func stealTime() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * time.Second / clockTicks
}
