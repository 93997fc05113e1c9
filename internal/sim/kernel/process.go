package kernel

import (
	"fmt"
	"sync"

	"cycada/internal/obs"
	"cycada/internal/sim/mem"
)

// Process is a simulated process: an address space plus a set of threads.
// Under Cycada a foreign app's process is dual-persona — its threads may
// execute with either the iOS or the Android persona.
type Process struct {
	k        *Kernel
	pid      int
	tracePID int // the PID its spans carry (see Kernel.pidBase)
	name     string
	mem      *mem.Space

	personas []Persona

	mu      sync.Mutex
	threads map[int]*Thread
	nextTID int
	leader  *Thread
}

// NewProcess creates a process whose threads may use the given personas.
// The first persona listed is the persona new threads start in.
func (k *Kernel) NewProcess(name string, personas ...Persona) (*Process, error) {
	if len(personas) == 0 {
		return nil, fmt.Errorf("kernel: process %q needs at least one persona", name)
	}
	seen := make(map[Persona]bool, len(personas))
	for _, p := range personas {
		if p != PersonaAndroid && p != PersonaIOS {
			return nil, fmt.Errorf("kernel: process %q: invalid persona %v", name, p)
		}
		if seen[p] {
			return nil, fmt.Errorf("kernel: process %q: duplicate persona %v", name, p)
		}
		seen[p] = true
	}
	k.mu.Lock()
	k.nextPID++
	pid := k.nextPID
	if pid-k.pidFirst >= obs.PIDSpace {
		k.pidBase, k.pidFirst = k.tracer.AllocPIDSpace(), pid-1
	}
	tracePID := k.pidBase + pid - k.pidFirst
	k.mu.Unlock()

	proc := &Process{
		k:        k,
		pid:      pid,
		tracePID: tracePID,
		name:     name,
		mem:      mem.NewSpace(),
		personas: personas,
		threads:  make(map[int]*Thread),
	}
	k.mu.Lock()
	k.procs[pid] = proc
	k.mu.Unlock()
	k.tracer.NameProcess(tracePID, name)

	proc.leader = proc.NewThread("main")
	return proc, nil
}

// PID returns the process ID.
func (p *Process) PID() int { return p.pid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// Mem returns the process address space.
func (p *Process) Mem() *mem.Space { return p.mem }

// Personas returns the personas threads of this process may assume.
func (p *Process) Personas() []Persona {
	out := make([]Persona, len(p.personas))
	copy(out, p.personas)
	return out
}

// HasPersona reports whether threads may assume persona pe.
func (p *Process) HasPersona(pe Persona) bool {
	for _, x := range p.personas {
		if x == pe {
			return true
		}
	}
	return false
}

// Main returns the thread-group leader (the "main" thread). Android's GLES
// restriction (paper §7) special-cases this thread.
func (p *Process) Main() *Thread { return p.leader }

// NewThread creates a thread starting in the process's first persona, with
// one empty TLS area per allowed persona.
func (p *Process) NewThread(name string) *Thread {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextTID++
	t := &Thread{
		proc: p,
		tid:  p.nextTID,
		name: name,
		cur:  p.personas[0],
		tls:  make(map[Persona]*TLSArea, len(p.personas)),
	}
	for _, pe := range p.personas {
		t.tls[pe] = newTLSArea()
	}
	p.threads[t.tid] = t
	p.k.tracer.NameThread(p.tracePID, t.tid, name)
	return t
}

// Thread looks up a thread by TID.
func (p *Process) Thread(tid int) (*Thread, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.threads[tid]
	return t, ok
}

// Threads returns a snapshot of the process's threads.
func (p *Process) Threads() []*Thread {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Thread, 0, len(p.threads))
	for _, t := range p.threads {
		out = append(out, t)
	}
	return out
}

// ExitThread removes a finished thread from the process.
func (p *Process) ExitThread(t *Thread) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.threads, t.tid)
}
