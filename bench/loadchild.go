package main

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"time"
)

// The load generator runs in a child process. In one process with the
// server, at GOMAXPROCS = 2 a match worker holds a P for its whole
// 10 ms kernel and the dispatcher goroutine waits for the scheduler's
// preemption tick, so the generator ran 10 ms late on serve_heavy; as its
// own process it is woken by the kernel within tens of microseconds. It
// also takes the client's CPU, allocations and memory out of
// match_cpu_ms, proc.* and peak_rss_mb, which then describe the server.
// The child regenerates the request lists from the seed, so only
// commands and measurements cross the pipe.

// roleEnv selects the child role in main and in the test binary.
const (
	roleEnv     = "EM_BENCH_ROLE"
	roleLoadgen = "loadgen"
)

// childConfig is the first message to the child.
type childConfig struct {
	Workload string
	Size     string
	Seed     int64
	Seconds  int
}

// command is one instruction to the child; the reply follows it.
type command struct {
	Op   string // opClosed, opOpen, opWriterStart, opWriterStop
	URL  string
	Dur  time.Duration
	Warm bool // closed: discard the phase, reply without samples
	// Capture (open): keep the first reply of Sampled queries the phase
	// reaches, for the bit-identity check.
	Capture bool
}

const (
	opClosed      = "closed"
	opOpen        = "open"
	opWriterStart = "writer_start"
	opWriterStop  = "writer_stop"
)

// reply carries one phase's measurements.
type reply struct {
	Err      string
	From, To time.Time // the phase, on the child's wall clock
	Samples  []sample
	Tally    matchTally
	Writes   writeReport
}

// loadgenChild is the child's main loop: decode a command, run it,
// encode an empty marker the instant the phase ends (the parent reads its
// CPU clock on it) and then the measurements.
func loadgenChild(in io.Reader, out io.Writer) error {
	dec, enc := gob.NewDecoder(in), gob.NewEncoder(out)
	var cc childConfig
	if err := dec.Decode(&cc); err != nil {
		return fmt.Errorf("loadgen: read config: %w", err)
	}
	p, err := paramsFor(cc.Workload, cc.Size)
	if err != nil {
		return err
	}
	cfg := runConfig{p: p, seed: cc.Seed, seconds: cc.Seconds}
	data, err := genServeData(p, cfg.seed, writeOpsFor(cfg))
	if err != nil {
		return err
	}
	if err := enc.Encode(reply{}); err != nil { // ready
		return err
	}
	drivers := make(map[string]*matchDriver)
	driver := func(url string) *matchDriver {
		if drivers[url] == nil {
			drivers[url] = newMatchDriver(newClient(url, openSenders()), data, p.Limit, openSenders())
		}
		return drivers[url]
	}
	var wr *writer
	for {
		var c command
		if err := dec.Decode(&c); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("loadgen: read command: %w", err)
		}
		var r reply
		r.From = time.Now()
		switch c.Op {
		case opClosed:
			md := driver(c.URL)
			r.Samples = closedLoop(closedClients(), c.Dur, md.do)
			r.Tally = md.next()
			if c.Warm {
				r.Samples, r.Tally = nil, matchTally{}
			}
		case opOpen:
			md := driver(c.URL)
			md.capture = make(map[int]bool)
			if c.Capture {
				reach := min(int(p.OpenRate*c.Dur.Seconds()), len(data.queries))
				for _, k := range rand.New(rand.NewSource(cfg.seed)).Perm(reach)[:min(p.Sampled, reach)] {
					md.capture[(md.offset+k)%len(data.queries)] = true
				}
			}
			r.Samples = openLoop(realClock, p.OpenRate, c.Dur, openSenders(), md.do)
			r.Tally = md.next()
		case opWriterStart:
			wr = newWriter(newClient(c.URL, 1), data.writes, p.WriteRate)
			go wr.run()
		case opWriterStop:
			if wr == nil {
				r.Err = "writer_stop without writer_start"
				break
			}
			r.Writes = wr.halt()
			wr = nil
		default:
			r.Err = "unknown op " + c.Op
		}
		r.To = time.Now()
		if err := enc.Encode(reply{}); err != nil {
			return err
		}
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
}

// loadgen is the parent's handle on the child.
type loadgen struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *gob.Encoder
	dec   *gob.Decoder
}

// startLoadgen re-executes this binary in the child role and waits until
// it has rebuilt the request lists.
func startLoadgen(cfg runConfig) (*loadgen, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"="+roleLoadgen)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	l := &loadgen{cmd: cmd, stdin: stdin, enc: gob.NewEncoder(stdin), dec: gob.NewDecoder(stdout)}
	cc := childConfig{Workload: cfg.p.Workload, Size: cfg.p.Size, Seed: cfg.seed, Seconds: cfg.seconds}
	var ready reply
	if err := l.enc.Encode(cc); err == nil {
		err = l.dec.Decode(&ready)
	}
	if err != nil {
		l.close()
		return nil, fmt.Errorf("start load generator: %w", err)
	}
	return l, nil
}

// do runs one command in the child. onDone, if set, is called the instant
// the child reports the phase over, before the measurements arrive.
func (l *loadgen) do(c command, onDone func()) (reply, error) {
	var marker, r reply
	if err := l.enc.Encode(c); err != nil {
		return r, fmt.Errorf("load generator %s: %w", c.Op, err)
	}
	if err := l.dec.Decode(&marker); err != nil {
		return r, fmt.Errorf("load generator %s: %w", c.Op, err)
	}
	if onDone != nil {
		onDone()
	}
	if err := l.dec.Decode(&r); err != nil {
		return r, fmt.Errorf("load generator %s: %w", c.Op, err)
	}
	if r.Err != "" {
		return r, fmt.Errorf("load generator %s: %s", c.Op, r.Err)
	}
	return r, nil
}

// close ends the child (EOF on its stdin) and waits for it.
func (l *loadgen) close() error {
	l.stdin.Close()
	return l.cmd.Wait()
}
