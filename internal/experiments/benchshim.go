package experiments

import (
	"sync"

	"xui/internal/obs"
)

// The bench shim: bench/ configures its runs through three package-level
// setters and a package-level RunJob, and may not change until the
// benchmark itself does. The setters write one mutex-guarded Env; RunJob
// runs a copy of it. ROADMAP item 6 deletes this file with bench/'s calls.
var shim struct {
	mu  sync.Mutex
	env Env //xui:guardedby mu
}

// SetWorkers sets the bench shim's sweep worker-pool size.
func SetWorkers(n int) {
	shim.mu.Lock()
	defer shim.mu.Unlock()
	shim.env.Workers = n
}

// SetShards does nothing. It set the sharded engine's worker width,
// which is gone: one goroutine drives every shard kernel. It stays until
// bench/ stops calling it.
func SetShards(int) {}

// SetObservability sets the bench shim's observability context.
func SetObservability(ctx *obs.Context) {
	shim.mu.Lock()
	defer shim.mu.Unlock()
	shim.env.Obs = ctx
}

// RunJob runs the named experiment on a copy of the bench shim's Env.
func RunJob(name string, quick bool) (any, error) { return shimEnv().RunJob(name, quick) }

// shimEnv copies the bench shim's settings into a fresh Env.
func shimEnv() *Env {
	shim.mu.Lock()
	defer shim.mu.Unlock()
	return &Env{Workers: shim.env.Workers, Obs: shim.env.Obs}
}
