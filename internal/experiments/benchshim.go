package experiments

import (
	"sync"

	"xui/internal/obs"
)

// The bench shim: bench/ configures its runs through three package-level
// setters and a package-level RunJob, and may not change until the
// benchmark itself does. RunJob runs every job on one Env, so the jobs
// share its run memo as a session's jobs do; a setter drops that Env,
// and the next RunJob builds a fresh one with the new settings.
// ROADMAP item 6 deletes this file with bench/'s calls.
var shim struct {
	mu      sync.Mutex
	workers int          //xui:guardedby mu
	obs     *obs.Context //xui:guardedby mu
	env     *Env         //xui:guardedby mu
}

// SetWorkers sets the bench shim's sweep worker-pool size.
func SetWorkers(n int) {
	shim.mu.Lock()
	defer shim.mu.Unlock()
	shim.workers, shim.env = n, nil
}

// SetShards does nothing. It set the sharded engine's worker width,
// which is gone: one goroutine drives every shard kernel. It stays until
// bench/ stops calling it.
func SetShards(int) {}

// SetObservability sets the bench shim's observability context.
func SetObservability(ctx *obs.Context) {
	shim.mu.Lock()
	defer shim.mu.Unlock()
	shim.obs, shim.env = ctx, nil
}

// RunJob runs the named experiment on the bench shim's Env.
func RunJob(name string, quick bool) (any, error) { return shimEnv().RunJob(name, quick) }

// shimEnv returns the bench shim's Env, building it after a setter.
func shimEnv() *Env {
	shim.mu.Lock()
	defer shim.mu.Unlock()
	if shim.env == nil {
		shim.env = &Env{Workers: shim.workers, Obs: shim.obs}
	}
	return shim.env
}
