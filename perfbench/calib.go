package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host the benchmark shares changes the speed of each CPU it gives
// the process, independently and by up to 2.5 times, from one second
// to the next; process CPU time slows with it. So neither wall time
// nor CPU time alone compares two runs, and the end-to-end times are
// normalized instead. While timed work runs, a sampler thread pinned
// to each CPU wakes every samplePeriod and times one round of a fixed
// reference kernel there. A unit of timed work (an experiment, a
// chunk, a request, a set-up) is scaled by refNominal over the mean
// round time on its CPUs during the unit: the result is the CPU time
// the unit would take on a host where a round takes refNominal.
//
// The kernel lives in the benchmark, not in the simulator, so no
// change to the simulator moves it. It does what the simulator's hot
// paths do: a binary heap of float keys (an event queue), xorshift
// integer work and scattered read-modify-writes into a table. Its
// data fits in the second-level cache. Of the table sizes tried (32 KB
// to 2 MB), 128 KB left the lowest mean spread between runs over the
// four workloads.

// refNominal is one round's CPU time on the 2-vCPU Xeon the benchmark
// was written on, with the host quiet. It only sets the scale of the
// normalized times, which read as that host's CPU time.
const refNominal = 220 * time.Microsecond

const (
	samplePeriod = 10 * time.Millisecond
	// sampleSlack widens a unit's window when picking samples, so a
	// unit shorter than samplePeriod still has samples.
	sampleSlack = 2 * samplePeriod
	refTableLen = 1 << 14 // 128 KB of uint64
	refHeapCap  = 2048    // 16 KB of float64
)

// refKernel runs one round of the reference work on its own table and
// heap (a sampler's, so samplers on different CPUs share no data).
func refKernel(table []uint64, heap []float64) float64 {
	x := uint64(88172645463325252)
	h := heap[:0]
	var acc float64
	for i := 0; i < 2*refHeapCap; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = append(h, float64(x%1000003)*1e-3)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		t := &table[x&(refTableLen-1)]
		*t += x
		acc += float64(*t&1023) * 0.5
		if len(h) > refHeapCap/2 {
			acc += h[0]
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			for j := 0; ; {
				l := 2*j + 1
				if l >= n {
					break
				}
				if c := l + 1; c < n && h[c] < h[l] {
					l = c
				}
				if h[j] <= h[l] {
					break
				}
				h[j], h[l] = h[l], h[j]
				j = l
			}
		}
	}
	return acc
}

// sample is one timed round: when it ran (since the meter's start) and
// its CPU time.
type sample struct {
	at, dur time.Duration
}

// sampler times a round on one CPU every samplePeriod until stopped.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []sample // read only after done is closed
	sink    float64  // keeps the kernel's result live
}

func startSampler(cpu int, t0 time.Time) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Never unlocked: the goroutine exits locked, so the runtime
		// ends the pinned thread rather than reusing it.
		runtime.LockOSThread()
		if err := setAffinity([]int{cpu}); err != nil {
			panic("perfbench: pin sampler: " + err.Error())
		}
		table := make([]uint64, refTableLen)
		heap := make([]float64, 0, refHeapCap)
		s.sink += refKernel(table, heap) // untimed: fault the data in
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			at := time.Since(t0)
			c0 := threadCPU()
			s.sink += refKernel(table, heap)
			s.samples = append(s.samples, sample{at, threadCPU() - c0})
		}
	}()
	return s
}

// unit is one measured unit of timed work.
type unit struct {
	start, end time.Duration // since the meter's start
	cpu        time.Duration
}

// meter measures units of timed work and normalizes them. A pinned
// meter runs the work on the calling goroutine, locked to a thread
// pinned to the first allowed CPU, and counts that thread's CPU time:
// the work's own path, without the garbage collector's background
// workers, which run beside it on the other CPUs. An unpinned meter
// counts the CPU time of the whole process, less its samplers', and
// samples every allowed CPU.
type meter struct {
	pinned   bool
	allowed  []int
	t0       time.Time
	samplers []*sampler
	units    []unit
	cur      unit
	cpu0     time.Duration
	closed   bool
	// Set by close: the units' normalized times, and the totals.
	norms     []time.Duration
	wall, cpu time.Duration
	speed     float64 // refNominal over the mean round time
}

func newMeter(pinned bool) (*meter, error) {
	allowed, err := getAffinity()
	if err != nil {
		return nil, err
	}
	m := &meter{pinned: pinned, allowed: allowed, t0: time.Now()}
	cpus := allowed
	if pinned {
		cpus = allowed[:1]
		runtime.LockOSThread()
		if err := setAffinity(cpus); err != nil {
			runtime.UnlockOSThread()
			return nil, err
		}
	}
	for _, c := range cpus {
		m.samplers = append(m.samplers, startSampler(c, m.t0))
	}
	return m, nil
}

func (m *meter) workCPU() time.Duration {
	if m.pinned {
		return threadCPU()
	}
	return processCPU()
}

// start begins a unit.
func (m *meter) start() {
	m.cur.start = time.Since(m.t0)
	m.cpu0 = m.workCPU()
}

// stop ends the unit begun by start.
func (m *meter) stop() {
	m.cur.cpu = m.workCPU() - m.cpu0
	m.cur.end = time.Since(m.t0)
	m.units = append(m.units, m.cur)
}

// close stops the samplers, unpins the calling goroutine and
// normalizes every unit measured.
func (m *meter) close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	for _, s := range m.samplers {
		close(s.stop)
		<-s.done
	}
	if m.pinned {
		defer runtime.UnlockOSThread()
		if err := setAffinity(m.allowed); err != nil {
			return err
		}
	}
	var all []sample
	for _, s := range m.samplers {
		all = append(all, s.samples...)
	}
	if len(all) == 0 {
		all = []sample{{0, refNominal}} // no timed work: nothing to scale
	}
	var sum time.Duration
	for _, s := range all {
		sum += s.dur
	}
	m.speed = float64(refNominal) * float64(len(all)) / float64(sum)
	for _, u := range m.units {
		var n int
		var round, inside time.Duration
		for _, s := range all {
			if s.at >= u.start-sampleSlack && s.at <= u.end+sampleSlack {
				n++
				round += s.dur
				if s.at >= u.start && s.at <= u.end {
					inside += s.dur
				}
			}
		}
		cpu := u.cpu
		if !m.pinned {
			cpu -= inside // the samplers' own rounds
		}
		f := m.speed
		if n > 0 {
			f = float64(refNominal) * float64(n) / float64(round)
		}
		norm := time.Duration(float64(cpu) * f)
		m.norms = append(m.norms, norm)
		m.wall += u.end - u.start
		m.cpu += cpu
	}
	return nil
}

// least sums, over the units of one pass, each unit's least
// normalized time across npass passes; pass p measured units
// p*n to (p+1)*n-1.
func (m *meter) least(npass int) time.Duration {
	n := len(m.norms) / npass
	var sum time.Duration
	for i := 0; i < n; i++ {
		best := m.norms[i]
		for p := 1; p < npass; p++ {
			best = min(best, m.norms[p*n+i])
		}
		sum += best
	}
	return sum
}

func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// processCPU is the CPU time of every thread of the process. Time the
// hypervisor stole, and time other processes ran, is not in it.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// The kernel's CPU-time clocks. They count to the nanosecond, where
// getrusage counts in scheduler ticks.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuMask is a sched_setaffinity CPU set of up to 1024 CPUs.
type cpuMask [16]uint64

// getAffinity lists the CPUs the calling thread may run on.
func getAffinity() ([]int, error) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, errno
	}
	var cpus []int
	for i := range len(mask) * 64 {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// setAffinity pins the calling thread to cpus.
func setAffinity(cpus []int) error {
	var mask cpuMask
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	return nil
}
