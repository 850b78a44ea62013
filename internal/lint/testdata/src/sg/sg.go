// Package sg exercises the single-goroutine analyzer: the event kernel
// models concurrency with events, so goroutines, channels and sync
// primitives are forbidden outright.
package sg

import "sync" // want `import of sync violates the single-goroutine simulation contract`

type Kernel struct {
	mu sync.Mutex
	ch chan int // want `channel type violates`
}

func (k *Kernel) Spawn() {
	go k.loop() // want `go statement violates`
}

func (k *Kernel) loop() {}

func (k *Kernel) Send(v int) {
	k.ch <- v // want `channel send violates`
}

func (k *Kernel) Recv() int {
	return <-k.ch // want `channel receive violates`
}

func (k *Kernel) Pump() int {
	n := 0
	for v := range k.ch { // want `range over a channel violates`
		n += v
	}
	close(k.ch) // want `close of a channel violates`
	return n
}

func (k *Kernel) Pick() {
	select { // want `select statement violates`
	default:
	}
}

func (k *Kernel) Lock() {
	k.mu.Lock()
	defer k.mu.Unlock()
}
