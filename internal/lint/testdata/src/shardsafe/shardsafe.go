// Package shardsafe exercises the shardsafe analyzer: every
// //xui:crosssend call site must pass a "when" derived from an
// epoch-boundary source.
package shardsafe

// Clock provides the epoch time sources.
type Clock struct{ now int64 }

func (c *Clock) Now() int64       { return c.now }
func (c *Clock) Lookahead() int64 { return 10 }

// Engine mimics the sharded engine's outbox layout.
type Engine struct {
	clock    Clock
	epochEnd int64
	out      [][]int
	seqs     []uint64
}

func (e *Engine) push(src, v int) {
	box := &e.out[src]
	*box = append(*box, v)
	e.seqs[src]++
}

// Send delivers v at when.
//
//xui:crosssend
func (e *Engine) Send(dst int, when int64, v int) {
	_ = when
	e.push(dst, v)
}

func (e *Engine) GoodSendNow() {
	e.Send(1, e.clock.Now()+5, 1)
}

func (e *Engine) GoodSendEpoch() {
	end := e.epochEnd
	e.Send(1, end+1, 2)
}

// forward's own "when" parameter is trusted; its callers are checked.
func (e *Engine) forward(when int64) {
	e.Send(0, when+1, 3)
}

func (e *Engine) BadSend() {
	e.Send(1, 42, 4) // want `cross-shard send \(\*Engine\)\.Send called with a "when" not derived from an epoch-boundary source`
}

func (e *Engine) WaivedSend(t int64) {
	//xui:shardok t is the epoch bound, threaded through a renamed parameter
	e.Send(1, t, 5)
}

//xui:shardok nothing is suppressed here, so this waiver is stale
func StaleWaiverHere() {}
