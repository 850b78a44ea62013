package netsim

import (
	"fmt"
	"testing"

	"xui/internal/core"
	"xui/internal/lpm"
	"xui/internal/sim"
)

// pollCase is one poll-mode l3fwd run: nics queues, each fed by its own
// generator at mean gap, read at two consecutive RunUntil deadlines.
type pollCase struct {
	name string
	nics int
	gap  sim.Time
	// want holds the account, counters and latency digest read after
	// each deadline, recorded from the round-by-round poll loop (one
	// event per 50-cycle empty poll) before idle rounds were
	// fast-forwarded.
	want [2]string
}

// pollDeadlines are the two consecutive RunUntil deadlines; neither is a
// multiple of any case's round length, so the last round of each call
// straddles its deadline.
var pollDeadlines = [2]sim.Time{700_001, 1_500_029}

var pollCases = []pollCase{
	{name: "1nic-low", nics: 1, gap: 5000, want: [2]string{
		"poll=631050 work=69000 fwd=138 noroute=0 drop=0 lat=n=138 mean=551 p50=512 p95=784 p99=960 p99.9=1056 max=1056",
		"poll=1355550 work=144500 fwd=289 noroute=0 drop=0 lat=n=289 mean=544 p50=512 p95=736 p99=960 p99.9=1056 max=1056",
	}},
	{name: "1nic-mid", nics: 1, gap: 700, want: [2]string{
		"poll=209150 work=491500 fwd=983 noroute=0 drop=0 lat=n=983 mean=963 p50=832 p95=1888 p99=2560 p99.9=2880 max=2910",
		"poll=453850 work=1046500 fwd=2093 noroute=0 drop=0 lat=n=2093 mean=1020 p50=848 p95=2176 p99=3008 p99.9=4352 max=4962",
	}},
	{name: "1nic-high", nics: 1, gap: 300, want: [2]string{
		"poll=1050 work=704000 fwd=1408 noroute=0 drop=0 lat=n=1408 mean=136969 p50=135168 p95=258048 p99=262144 p99.9=262144 max=268880",
		"poll=1050 work=1504000 fwd=3008 noroute=0 drop=906 lat=n=3008 mean=288737 p50=286720 p95=507904 p99=516096 p99.9=516096 max=522257",
	}},
	{name: "3nic-low", nics: 3, gap: 15000, want: [2]string{
		"poll=636550 work=63500 fwd=127 noroute=0 drop=0 lat=n=127 mean=674 p50=624 p95=992 p99=1344 p99.9=1472 max=1478",
		"poll=1355650 work=144500 fwd=289 noroute=0 drop=0 lat=n=289 mean=672 p50=624 p95=1008 p99=1120 p99.9=1472 max=1478",
	}},
	{name: "3nic-high", nics: 3, gap: 1200, want: [2]string{
		"poll=3200 work=712500 fwd=1425 noroute=0 drop=0 lat=n=1425 mean=66773 p50=64512 p95=143360 p99=155648 p99.9=163840 max=168236",
		"poll=3200 work=1528500 fwd=3057 noroute=0 drop=0 lat=n=3057 mean=156395 p50=151552 p95=319488 p99=360448 p99.9=360448 max=371350",
	}},
}

// runPollCase runs c and returns the digest after each deadline and the
// events fired.
func runPollCase(t *testing.T, c pollCase) ([2]string, uint64) {
	t.Helper()
	s := sim.New(1)
	m, err := core.NewMachine(s, 1, core.TrackedIPI)
	if err != nil {
		t.Fatal(err)
	}
	v := m.Cores[0]
	nics := make([]*NIC, c.nics)
	for i := range nics {
		nics[i] = NewNIC(s, i)
	}
	l, err := NewL3Fwd(s, lpm.GenerateTable(1000, 3), nics, v, PollMode)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nics {
		StartGenerator(s, n, c.gap, uint64(n.ID)+21)
	}
	l.Start()
	var got [2]string
	for i, d := range pollDeadlines {
		s.RunUntil(d)
		var dropped uint64
		for _, n := range nics {
			dropped += n.Dropped
		}
		got[i] = fmt.Sprintf("poll=%d work=%d fwd=%d noroute=%d drop=%d lat=%+v",
			v.Account.Get(core.CatPoll), v.Account.Get(core.CatWork),
			l.Forwarded, l.NoRoute, dropped, l.Latency.Summarize())
	}
	return got, s.Fired()
}

// TestPollFastForwardExact checks that fast-forwarding empty poll rounds
// changes nothing observable: at each deadline the poll and work
// cycles, the forwarded, unrouted and dropped counts and the latency
// digest equal those of the round-by-round loop.
func TestPollFastForwardExact(t *testing.T) {
	for _, c := range pollCases {
		t.Run(c.name, func(t *testing.T) {
			got, _ := runPollCase(t, c)
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("after RunUntil(%d):\n got %s\nwant %s", pollDeadlines[i], got[i], c.want[i])
				}
			}
		})
	}
}

// roundByRoundFired is how many events the 1-NIC, 10%-load case
// dispatched when every 50-cycle empty poll was its own event.
const roundByRoundFired = 27687

// TestPollFastForwardFiresFewerEvents checks that the fast-forward is
// what removes the idle rounds: the 1-NIC, 10%-load case must dispatch
// at least 5x fewer events than the round-by-round loop did.
func TestPollFastForwardFiresFewerEvents(t *testing.T) {
	_, fired := runPollCase(t, pollCases[0])
	if fired*5 > roundByRoundFired {
		t.Errorf("fired %d events, want at most %d (1/5 of %d)", fired, roundByRoundFired/5, roundByRoundFired)
	}
}
