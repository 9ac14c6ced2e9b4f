package main

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on is a small shared VM whose speed moves
// between regimes that last seconds to minutes: on the reference box the
// CPU time of one serve_heavy request drifts between 7 and 14 ms with no
// change to the program, so 20-second medians of any timing spread by
// 8-25% from run to run and no regression bound the contract allows could
// hold. A probe therefore times a small fixed kernel every few
// milliseconds for the whole run, and every gated time is divided (every
// rate multiplied) by the box factor of its own phase: the probe's median
// CPU time in that phase over probeNominal. What is reported is the time
// the work would have taken at the probe's nominal speed. Wall-clock
// values stay in the result file (raw_end_to_end), and per-layer metrics
// are raw.
//
// The yardstick must not move when the program changes. So the probe is a
// process of its own (no heap, collector, write barriers or scheduler
// shared with the server), its kernel allocates nothing, each sample runs
// the kernel once untimed first (so that what the program left in the
// core's caches is not timed), and it reads its thread's CPU clock (so
// that waiting for a core is not timed). README "The box factor" has the
// experiment that injects a slowdown and an allocation increase into the
// program and shows the factor unmoved.

// probeNominal is the kernel's CPU time on the reference box in its usual
// regime, so that normalised values read close to wall-clock ones there.
// It only fixes the scale.
const probeNominal = 110 * time.Microsecond

// probeEvery is the pause between probe samples: about 3% of one core.
const probeEvery = 12 * time.Millisecond

// probeSample is one timing of the kernel. Times cross the pipe as
// integers: At is wall-clock UnixNano, CPU is nanoseconds.
type probeSample struct {
	At  int64
	CPU int64
}

const roleProbe = "probe"

// probeChild is the probe process: it samples until its standard input
// closes, then writes every sample and exits.
func probeChild(in io.Reader, out io.Writer) error {
	debug.SetGCPercent(-1) // the sampling loop allocates nothing; off, the collector cannot run beside it either
	runtime.LockOSThread()
	k := newProbeKernel()
	// Room for ten minutes of samples, several times the longest run.
	samples := make([]probeSample, 0, int(10*time.Minute/probeEvery))
	closed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, in) // any error means the parent is gone: stop
		close(closed)
	}()
	for {
		select {
		case <-closed:
			return gob.NewEncoder(out).Encode(samples)
		default:
		}
		k.run()
		t0 := threadCPU()
		k.run()
		cpu := threadCPU() - t0
		samples = append(samples, probeSample{At: time.Now().UnixNano(), CPU: int64(cpu)})
		realClock.sleep(probeEvery)
	}
}

// probe is the parent's handle on the probe process.
type probe struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   io.Reader

	halted bool
	speed  boxSpeed
	err    error
}

func startProbe() (*probe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"="+roleProbe)
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
		return nil, fmt.Errorf("start probe: %w", err)
	}
	return &probe{cmd: cmd, stdin: stdin, out: stdout}, nil
}

// halt ends the probe process, waits for it and returns what it sampled.
// Later calls return the same; a deferred one covers the error paths.
func (p *probe) halt() (boxSpeed, error) {
	if p.halted {
		return p.speed, p.err
	}
	p.halted = true
	p.stdin.Close()
	derr := gob.NewDecoder(p.out).Decode(&p.speed)
	if err := p.cmd.Wait(); err != nil {
		p.err = fmt.Errorf("probe: %w", err)
	} else if derr != nil {
		p.err = fmt.Errorf("probe: read samples: %w", derr)
	}
	return p.speed, p.err
}

// boxSpeed is a run's probe samples in time order.
type boxSpeed []probeSample

// factor is how slow the box ran between from and to, relative to the
// probe's nominal speed: 1.2 means a fifth slower. It is the median of the
// samples in the interval; an interval shorter than the probe's period
// (the smoke test has some) takes the sample nearest to it, the box's
// speed moving over seconds and not milliseconds. A run without samples is
// an error, never a silent 1, which would mix raw and normalised values.
func (b boxSpeed) factor(from, to time.Time) (float64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("probe: no samples")
	}
	lo, hi := from.UnixNano(), to.UnixNano()
	var cpu []float64
	nearest, gap := b[0], int64(math.MaxInt64)
	for _, s := range b {
		if s.At >= lo && s.At <= hi {
			cpu = append(cpu, float64(s.CPU))
		} else if d := max(lo-s.At, s.At-hi); d < gap {
			nearest, gap = s, d
		}
	}
	if len(cpu) == 0 {
		cpu = []float64{float64(nearest.CPU)}
	}
	return median(cpu) / float64(probeNominal), nil
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID of the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// probeKernel is the fixed work the probe times: edit distances between
// fixed words on preallocated rows. Branchy integer work on a few
// kilobytes, the mix the matching kernels are made of; it is the
// harness's own code and calls nothing of the program.
type probeKernel struct {
	words     [][]byte
	prev, cur []int
	sink      int
}

const (
	probeWordCount = 300
	probePairs     = 200
)

func newProbeKernel() *probeKernel {
	k := &probeKernel{words: make([][]byte, probeWordCount)}
	x := uint32(2463534242)
	longest := 0
	for i := range k.words {
		b := make([]byte, 6+i%20)
		for j := range b {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			b[j] = 'a' + byte(x%26)
		}
		k.words[i] = b
		longest = max(longest, len(b))
	}
	k.prev, k.cur = make([]int, longest+1), make([]int, longest+1)
	return k
}

func (k *probeKernel) run() {
	for i := 0; i < probePairs; i++ {
		a, b := k.words[i], k.words[(i*7+1)%len(k.words)]
		prev, cur := k.prev[:len(b)+1], k.cur[:len(b)+1]
		for j := range prev {
			prev[j] = j
		}
		for x := 1; x <= len(a); x++ {
			cur[0] = x
			for y := 1; y <= len(b); y++ {
				cost := 1
				if a[x-1] == b[y-1] {
					cost = 0
				}
				cur[y] = min(prev[y]+1, cur[y-1]+1, prev[y-1]+cost)
			}
			prev, cur = cur, prev
		}
		k.sink += prev[len(b)]
	}
}
