// Package mpsoc is an event-driven heterogeneous MPSoC simulator, the
// stand-in for the cycle-accurate CoMET virtual platform the paper
// evaluates on. It executes the hierarchical task plans produced by the
// parallelizer on a configurable platform: cores grouped in processor
// classes with different clocks, a shared bus with contention for
// inter-task communication, and per-spawn task-creation overhead.
//
// Durations are recomputed from HTG cycle counts and the class of the core
// a task actually lands on — not from the ILP's own estimates — so the
// simulator independently "measures" each solution, including plans that
// were balanced under wrong assumptions (the homogeneous baseline mapped
// onto a heterogeneous platform).
package mpsoc

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/htg"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Core is one processing unit instance.
type Core struct {
	ID    int
	Class int
	// freeAt is the simulation time the core becomes idle.
	freeAt float64
	// busyNs accumulates busy time for utilization reporting.
	busyNs float64
}

// Sim is one simulation instance.
type Sim struct {
	pf    *platform.Platform
	cores []*Core
	// busFreeAt serializes bus transfers (shared-bus contention).
	busFreeAt float64
	// transfers counts bus transactions.
	transfers int
	// bytesMoved sums transferred bytes.
	bytesMoved float64
	// roundRobin maps logical classes of a homogeneous plan onto physical
	// cores in index order (the homogeneous baseline has no pre-mapping).
	roundRobin bool
	rrNext     int
	// trace records execution segments for Gantt rendering.
	trace []Segment
	// label is the annotation applied to the next busy interval.
	label string
}

// Segment is one traced busy interval (core -1 = the shared bus).
type Segment struct {
	Core    int
	StartNs float64
	EndNs   float64
	Label   string
}

// Result reports one measured execution.
type Result struct {
	// MakespanNs is the simulated end-to-end execution time.
	MakespanNs float64
	// Utilization per core: busy time / makespan.
	Utilization []float64
	// Transfers is the number of bus transactions performed.
	Transfers int
	// BytesMoved is the total communication volume.
	BytesMoved float64
	// Trace lists the recorded execution segments (Gantt data).
	Trace []Segment
	// EnergyUJ is the estimated energy in microjoules: active core energy
	// plus idle draw of the remaining cores over the makespan plus bus
	// transfer energy. Heterogeneous pre-mapping often wins energy as well
	// as time, because work migrates to the most efficient-at-speed cores
	// and the makespan (idle-burn window) shrinks.
	EnergyUJ float64
}

// EDP returns the energy-delay product in microjoule-milliseconds, the
// usual single-figure merit when trading speedup against energy.
func (r *Result) EDP() float64 { return r.EnergyUJ * r.MakespanNs / 1e6 }

// New creates a simulator over pf. roundRobin selects the physical mapping
// mode for plans whose task classes are meaningless (homogeneous baseline).
func New(pf *platform.Platform, roundRobin bool) *Sim {
	s := &Sim{pf: pf, roundRobin: roundRobin}
	id := 0
	for cls, pc := range pf.Classes {
		for i := 0; i < pc.Count; i++ {
			s.cores = append(s.cores, &Core{ID: id, Class: cls})
			id++
		}
	}
	return s
}

// Run executes the solution with its main task on a core of mainClass
// (real platform class) and returns the measured result.
func (s *Sim) Run(sol *core.Solution, mainClass int) (*Result, error) {
	main := s.coreOfClass(mainClass)
	if main == nil {
		return nil, fmt.Errorf("mpsoc: no core of class %d", mainClass)
	}
	end := s.execSolution(sol, main, 0)
	util := make([]float64, len(s.cores))
	for i, c := range s.cores {
		if end > 0 {
			util[i] = c.busyNs / end
		}
	}
	energy := 0.0
	for _, c := range s.cores {
		pc := s.pf.Classes[c.Class]
		idle := end - c.busyNs
		if idle < 0 {
			idle = 0
		}
		// mW * ns = picojoules; /1e6 -> microjoules.
		energy += (pc.ActivePowerMW()*c.busyNs + pc.IdlePowerMW()*idle) / 1e6
	}
	energy += s.bytesMoved * platform.BusEnergyPJPerByte / 1e6
	return &Result{
		MakespanNs:  end,
		Utilization: util,
		Transfers:   s.transfers,
		BytesMoved:  s.bytesMoved,
		EnergyUJ:    energy,
		Trace:       s.trace,
	}, nil
}

// SequentialEnergyUJ estimates the energy of the sequential baseline: the
// main core active for the whole run, every other core idling.
func (s *Sim) SequentialEnergyUJ(g *htg.Graph, mainClass int) float64 {
	span := s.SequentialBaseline(g, mainClass)
	energy := 0.0
	seen := false
	for _, c := range s.cores {
		pc := s.pf.Classes[c.Class]
		if !seen && c.Class == mainClass {
			energy += pc.ActivePowerMW() * span / 1e6
			seen = true
			continue
		}
		energy += pc.IdlePowerMW() * span / 1e6
	}
	return energy
}

// SequentialBaseline measures the fully sequential execution of the graph
// root on a core of mainClass.
func (s *Sim) SequentialBaseline(g *htg.Graph, mainClass int) float64 {
	pc := s.pf.Classes[mainClass]
	return float64(g.Root.TotalCount) * g.Root.CostNanosOn(pc)
}

func (s *Sim) coreOfClass(class int) *Core {
	for _, c := range s.cores {
		if c.Class == class {
			return c
		}
	}
	return nil
}

// reserve picks the earliest-available core of the requested class other
// than exclude. In round-robin mode the class is ignored and cores are
// handed out in index order, emulating an OS scheduler with no mapping
// hints.
func (s *Sim) reserve(class int, exclude map[int]bool) *Core {
	if s.roundRobin {
		for range s.cores {
			c := s.cores[s.rrNext%len(s.cores)]
			s.rrNext++
			if !exclude[c.ID] {
				return c
			}
		}
		return nil
	}
	var best *Core
	for _, c := range s.cores {
		if c.Class != class || exclude[c.ID] {
			continue
		}
		if best == nil || c.freeAt < best.freeAt {
			best = c
		}
	}
	return best
}

// busy blocks the core for dur starting no earlier than t; returns the
// finish time. The segment is traced under the current label.
func (s *Sim) busy(c *Core, t, dur float64) float64 {
	start := math.Max(t, c.freeAt)
	c.freeAt = start + dur
	c.busyNs += dur
	if dur > 0 {
		s.trace = append(s.trace, Segment{Core: c.ID, StartNs: start, EndNs: c.freeAt, Label: s.label})
	}
	return c.freeAt
}

// labeled sets the annotation for subsequently traced segments.
func (s *Sim) labeled(label string) { s.label = label }

// transfer moves bytes over the shared bus, ready at t; returns arrival.
func (s *Sim) transfer(t float64, bytes int, times float64) float64 {
	if bytes <= 0 || times <= 0 {
		return t
	}
	dur := s.pf.CommCostNs(bytes) * times
	start := math.Max(t, s.busFreeAt)
	s.busFreeAt = start + dur
	s.transfers += int(times)
	s.bytesMoved += float64(bytes) * times
	s.trace = append(s.trace, Segment{Core: -1, StartNs: start, EndNs: s.busFreeAt, Label: "bus"})
	return s.busFreeAt
}

// execSolution runs sol with its main task on core main, starting at t0.
// It returns the completion time.
func (s *Sim) execSolution(sol *core.Solution, main *Core, t0 float64) float64 {
	if sol.Kind == core.KindSequential || len(sol.Tasks) == 0 {
		dur := s.nodeDuration(sol.Node, main.Class, 1)
		s.labeled(nodeLabel(sol.Node))
		return s.busy(main, t0, dur)
	}
	// Fork: creation of the extra tasks is serialized on the main core.
	spawns := s.spawnCount(sol)
	nExtra := float64(len(sol.Tasks) - 1)
	s.labeled("fork")
	forkDone := s.busy(main, t0, spawns*s.pf.TaskCreateNs*nExtra)

	// Allocate cores: task 0 = main; others by class (or round robin).
	used := map[int]bool{main.ID: true}
	taskCores := make([]*Core, len(sol.Tasks))
	taskCores[0] = main
	for i := 1; i < len(sol.Tasks); i++ {
		c := s.reserve(sol.Tasks[i].Class, used)
		if c == nil {
			// Over-subscribed (should not happen for budget-feasible
			// plans): fall back to the least-loaded core.
			c = s.leastLoaded()
		}
		used[c.ID] = true
		taskCores[i] = c
	}

	// Execute items in topological order across tasks, respecting
	// dependence edges between the underlying HTG children.
	finishOfChild := map[*htg.Node]float64{}
	taskCursor := make([]float64, len(sol.Tasks))
	taskOfChild := map[*htg.Node]int{}
	for ti, tp := range sol.Tasks {
		taskCursor[ti] = forkDone
		for _, it := range tp.Items {
			if it.Child != nil && it.ChunkFrac == 0 {
				taskOfChild[it.Child] = ti
			}
		}
	}
	// In-communication: non-main tasks receive their input data once the
	// fork completes.
	for ti := 1; ti < len(sol.Tasks); ti++ {
		inBytes := 0
		times := 1.0
		for _, it := range sol.Tasks[ti].Items {
			if it.Child != nil {
				if it.ChunkFrac > 0 {
					inBytes += int(float64(it.Child.InBytes) * it.ChunkFrac)
				} else {
					inBytes += it.Child.InBytes
					if float64(it.Child.TotalCount) > times {
						times = float64(it.Child.TotalCount)
					}
				}
			}
		}
		if it := sol.Tasks[ti]; len(it.Items) > 0 && inBytes > 0 {
			_ = it
			taskCursor[ti] = s.transfer(taskCursor[ti], inBytes, spawnTimes(sol, times))
		}
	}

	for ti, tp := range sol.Tasks {
		for _, it := range tp.Items {
			ready := taskCursor[ti]
			// Wait for producers in other tasks.
			if it.Child != nil && it.ChunkFrac == 0 {
				ready = math.Max(ready, s.producersReady(sol, it.Child, taskOfChild, ti, finishOfChild))
			}
			var end float64
			c := taskCores[ti]
			switch {
			case it.ChunkFrac > 0:
				dur := s.nodeDuration(it.Child, c.Class, it.ChunkFrac)
				s.labeled("chunk:" + nodeLabel(it.Child))
				end = s.busy(c, ready, dur)
			case it.Sub != nil && it.Sub.Kind != core.KindSequential:
				end = s.execSolution(it.Sub, c, ready)
			default:
				dur := s.nodeDuration(it.Child, c.Class, 1)
				s.labeled(nodeLabel(it.Child))
				end = s.busy(c, ready, dur)
			}
			taskCursor[ti] = end
			if it.Child != nil && it.ChunkFrac == 0 {
				finishOfChild[it.Child] = end
			}
		}
	}
	// Join: non-main tasks ship their live-out data back; the region ends
	// when everything has arrived.
	end := taskCursor[0]
	for ti := 1; ti < len(sol.Tasks); ti++ {
		t := taskCursor[ti]
		outBytes := 0
		for _, it := range sol.Tasks[ti].Items {
			if it.Child != nil {
				if it.ChunkFrac > 0 {
					outBytes += int(float64(it.Child.OutBytes) * it.ChunkFrac)
				} else {
					outBytes += it.Child.OutBytes
				}
			}
		}
		if outBytes > 0 {
			t = s.transfer(t, outBytes, spawnTimes(sol, 1))
		}
		end = math.Max(end, t)
	}
	// The main core is blocked until the join completes.
	if end > main.freeAt {
		main.freeAt = end
	}
	return end
}

// producersReady returns the time all cross-task producers of child have
// finished and shipped their data.
func (s *Sim) producersReady(sol *core.Solution, child *htg.Node,
	taskOfChild map[*htg.Node]int, consumerTask int, finish map[*htg.Node]float64) float64 {
	ready := 0.0
	if child.Parent == nil {
		return ready
	}
	for _, sib := range child.Parent.Children {
		for _, e := range sib.Edges {
			if e.To != child {
				continue
			}
			pt, ok := taskOfChild[e.From]
			if !ok || pt == consumerTask {
				continue // same task: program order already serializes
			}
			f, done := finish[e.From]
			if !done {
				continue // producer not yet simulated; topological order
				// of tasks items makes this rare; treat as ready
			}
			arrive := f
			if e.Bytes > 0 {
				arrive = s.transfer(f, e.Bytes, float64(e.To.TotalCount))
			}
			if arrive > ready {
				ready = arrive
			}
		}
	}
	return ready
}

// nodeDuration converts a fraction of an HTG node's total work to time on
// a class.
func (s *Sim) nodeDuration(n *htg.Node, class int, frac float64) float64 {
	if n == nil {
		return 0
	}
	pc := s.pf.Classes[class]
	return float64(n.TotalCount) * n.CostNanosOn(pc) * frac
}

// spawnCount returns the number of times the task set of sol is created.
func (s *Sim) spawnCount(sol *core.Solution) float64 {
	if sol.Node == nil {
		return 1
	}
	n := float64(sol.Node.TotalCount)
	if sol.Kind == core.KindTaskParallel && sol.Node.Kind == htg.KindLoop {
		// Statement-level loop parallelization forks per iteration.
		iters := 0.0
		for _, c := range sol.Node.Children {
			if c.Count > iters {
				iters = c.Count
			}
		}
		if iters > 1 {
			n *= iters
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// spawnTimes bounds communication repetitions for boundary transfers.
func spawnTimes(sol *core.Solution, times float64) float64 {
	if sol.Kind == core.KindChunked {
		return 1
	}
	if times < 1 {
		return 1
	}
	return times
}

func (s *Sim) leastLoaded() *Core {
	best := s.cores[0]
	for _, c := range s.cores[1:] {
		if c.freeAt < best.freeAt {
			best = c
		}
	}
	return best
}

// nodeLabel names a node for trace output.
func nodeLabel(n *htg.Node) string {
	if n == nil {
		return "work"
	}
	return n.Label
}

// ExportOccupancy synthesizes per-core occupancy tracks (plus the
// shared bus) from the recorded execution trace onto the tracer's
// virtual timeline, for the Chrome trace export. Safe on a nil tracer.
func (r *Result) ExportOccupancy(tr *obs.Tracer, pf *platform.Platform) {
	if tr == nil || r == nil {
		return
	}
	names := map[int]string{-1: "bus"}
	id := 0
	for _, pc := range pf.Classes {
		for i := 0; i < pc.Count; i++ {
			names[id] = fmt.Sprintf("core%d %s", id, pc.Name)
			id++
		}
	}
	for _, seg := range r.Trace {
		track, ok := names[seg.Core]
		if !ok {
			track = fmt.Sprintf("core%d", seg.Core)
		}
		label := seg.Label
		if label == "" {
			label = "work"
		}
		tr.Slice(track, label, seg.StartNs, seg.EndNs)
	}
}

// RenderGantt draws the traced execution as an ASCII timeline, one row per
// core (plus the shared bus), scaled to the given width.
func RenderGantt(pf *platform.Platform, res *Result, width int) string {
	if width <= 10 {
		width = 72
	}
	if res.MakespanNs <= 0 || len(res.Trace) == 0 {
		return "(no trace)\n"
	}
	scale := float64(width) / res.MakespanNs
	rows := map[int][]byte{}
	names := map[int]string{-1: "bus"}
	id := 0
	for _, pc := range pf.Classes {
		for i := 0; i < pc.Count; i++ {
			names[id] = fmt.Sprintf("core%d %s", id, pc.Name)
			id++
		}
	}
	rowFor := func(core int) []byte {
		if r, ok := rows[core]; ok {
			return r
		}
		r := make([]byte, width)
		for i := range r {
			r[i] = '.'
		}
		rows[core] = r
		return r
	}
	glyph := func(label string) byte {
		switch {
		case label == "bus":
			return '~'
		case label == "fork":
			return 'f'
		case len(label) >= 6 && label[:6] == "chunk:":
			return '#'
		default:
			return 'x'
		}
	}
	for _, seg := range res.Trace {
		r := rowFor(seg.Core)
		a := int(seg.StartNs * scale)
		b := int(seg.EndNs * scale)
		if b >= width {
			b = width - 1
		}
		g := glyph(seg.Label)
		for i := a; i <= b && i < width; i++ {
			r[i] = g
		}
	}
	keys := make([]int, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "0 ns %s %.0f ns\n", strings.Repeat(" ", width-12), res.MakespanNs)
	for _, k := range keys {
		name := names[k]
		if name == "" {
			name = fmt.Sprintf("core%d", k)
		}
		fmt.Fprintf(&sb, "%-18s |%s|\n", name, rows[k])
	}
	sb.WriteString("legend: x=task  #=chunk  f=fork  ~=bus  .=idle\n")
	return sb.String()
}

// Speedup is a convenience: measured sequential baseline over measured
// parallel makespan.
func Speedup(seqNs, parNs float64) float64 {
	if parNs <= 0 {
		return 1
	}
	return seqNs / parNs
}

// FormatUtilization renders per-core utilization sorted by core id.
func (r *Result) FormatUtilization(pf *platform.Platform) string {
	type cu struct {
		id   int
		name string
		u    float64
	}
	var list []cu
	id := 0
	for _, pc := range pf.Classes {
		for i := 0; i < pc.Count; i++ {
			u := 0.0
			if id < len(r.Utilization) {
				u = r.Utilization[id]
			}
			list = append(list, cu{id, pc.Name, u})
			id++
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	out := ""
	for _, e := range list {
		out += fmt.Sprintf("core %d (%s): %5.1f%%\n", e.id, e.name, e.u*100)
	}
	return out
}
