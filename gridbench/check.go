package main

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/simtime"
)

// Outcomes of one offered job as the client saw it.
const (
	outAccepted = "accepted"
	outRefused  = "refused" // 422 infeasible, 429 overloaded, 503 draining
	outError    = "error"   // 5xx, transport error, unexpected code
)

// classifyStatus maps a POST /v1/jobs response code to an outcome.
func classifyStatus(code int) string {
	switch code {
	case http.StatusAccepted:
		return outAccepted
	case http.StatusUnprocessableEntity, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return outRefused
	default:
		return outError
	}
}

// ledger is the benchmark's own account of a round: every offered job's
// admission outcome, and every terminal state the program reported for
// it (through OnTerminal in-process, or GET /v1/jobs from gridd).
type ledger struct {
	offered   []string
	outcome   map[string]string
	terminals map[string][]string
}

func newLedger() *ledger {
	return &ledger{outcome: map[string]string{}, terminals: map[string][]string{}}
}

func (l *ledger) offer(id, outcome string) {
	l.offered = append(l.offered, id)
	if _, dup := l.outcome[id]; dup {
		l.outcome[id] = "duplicate offer"
		return
	}
	l.outcome[id] = outcome
}

func (l *ledger) terminal(id, state string) {
	l.terminals[id] = append(l.terminals[id], state)
}

// count returns how many offered jobs had the outcome.
func (l *ledger) count(outcome string) int {
	n := 0
	for _, id := range l.offered {
		if l.outcome[id] == outcome {
			n++
		}
	}
	return n
}

// problems collects check failures, keeping the first few verbatim.
type problems struct {
	n    int
	msgs []string
}

func (p *problems) addf(format string, args ...any) {
	p.n++
	if len(p.msgs) < 8 {
		p.msgs = append(p.msgs, fmt.Sprintf(format, args...))
	}
}

func (p *problems) merge(o problems) {
	p.n += o.n
	for _, m := range o.msgs {
		if len(p.msgs) < 8 {
			p.msgs = append(p.msgs, m)
		}
	}
}

// checkAccounting: every offered job has exactly one admission outcome,
// accepted or refused; every accepted job reached exactly one terminal
// state; nothing the benchmark never offered turned up terminal. A
// refused job may carry one terminal "rejected" record (admission control
// ledgers infeasible jobs so the duplicate guard remembers them).
func checkAccounting(l *ledger) problems {
	var p problems
	for _, id := range l.offered {
		ts := l.terminals[id]
		switch o := l.outcome[id]; o {
		case outAccepted:
			if len(ts) != 1 {
				p.addf("accepted job %s reached %d terminal states %v", id, len(ts), ts)
			}
		case outRefused:
			if len(ts) > 1 || (len(ts) == 1 && ts[0] != "rejected") {
				p.addf("refused job %s has terminal states %v", id, ts)
			}
		default:
			p.addf("job %s: admission outcome %q", id, o)
		}
	}
	ids := sortedKeys(l.terminals)
	for _, id := range ids {
		if _, ok := l.outcome[id]; !ok {
			p.addf("terminal state %v for job %s that was never offered", l.terminals[id], id)
		}
	}
	return p
}

// checkOverlaps: no two reservations on one node's calendar overlap.
func checkOverlaps(books map[string][]simtime.Interval) problems {
	var p problems
	for _, node := range sortedKeys(books) {
		ivs := append([]simtime.Interval(nil), books[node]...)
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start < ivs[b].Start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start < ivs[i-1].End {
				p.addf("node %s: reservations %v and %v overlap", node, ivs[i-1], ivs[i])
			}
		}
	}
	return p
}

// finished is one completed job's finish time against its deadline.
type finished struct {
	id               string
	finish, deadline simtime.Time
}

// checkDeadlines: every completed job finished by its deadline.
func checkDeadlines(done []finished) problems {
	var p problems
	for _, f := range done {
		if f.finish > f.deadline {
			p.addf("job %s completed at %d after its deadline %d", f.id, f.finish, f.deadline)
		}
	}
	return p
}

// checkRecovered: every accepted job is in the reopened journal, in the
// terminal state the live service reported.
func checkRecovered(final, recovered map[string]string) problems {
	var p problems
	for _, id := range sortedKeys(final) {
		got, ok := recovered[id]
		switch {
		case !ok:
			p.addf("accepted job %s missing from the recovered journal", id)
		case got != final[id]:
			p.addf("job %s recovered as %q, service reported %q", id, got, final[id])
		}
	}
	return p
}
