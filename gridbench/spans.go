package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// span is one finished span from either source: the benchmark's own
// bench.* spans, or the program's span stream (Sched.Spans in-process,
// gridd -spans for the child).
type span struct {
	id, parent uint64
	name       string
	start, end int64 // Unix nanoseconds
	job        string
}

// parseSpans reads telemetry.Tracer JSONL. Lines without a span ID (for
// example VO events sharing the file) are skipped. idBase is added to
// every ID so streams from different tracers never collide.
func parseSpans(data []byte, idBase uint64) ([]span, error) {
	var out []span
	for n, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var raw struct {
			Span   uint64 `json:"span"`
			Parent uint64 `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start"`
			End    int64  `json:"end"`
			Attrs  struct {
				Job string `json:"job"`
			} `json:"attrs"`
		}
		if err := json.Unmarshal(line, &raw); err != nil {
			return nil, fmt.Errorf("span line %d: %w", n+1, err)
		}
		if raw.Span == 0 {
			continue
		}
		s := span{id: raw.Span + idBase, name: raw.Name, start: raw.Start, end: raw.End, job: raw.Attrs.Job}
		if raw.Parent != 0 {
			s.parent = raw.Parent + idBase
		}
		out = append(out, s)
	}
	return out, nil
}

// The program's spans link parents through contexts only below
// metasched: service.process and metasched.adopt are both roots. The
// benchmark re-links such roots to the span that encloses them in time on
// the goroutine that ran them. Engine-side work (VO adopt/fallback,
// strategy and critical-works builds started outside a linked parent)
// runs inside a service step or drain; a service step runs inside the
// benchmark's Process or Drain call; a submission runs inside the
// benchmark's Submit call or HTTP POST for the same job.
var (
	engineParents  = map[string]bool{"service.process": true, "service.process_batch": true, "service.drain": true}
	serviceParents = map[string]bool{"bench.process": true, "bench.drain": true}
	submitParents  = map[string]bool{"bench.submit": true, "bench.post": true}
)

// layerSelf is one span name's share of a traced run.
type layerSelf struct {
	count           int
	totalNs, selfNs int64
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string]layerSelf {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	var engine, service []int
	submits := map[string][]int{}
	for i, s := range spans {
		switch {
		case engineParents[s.name]:
			engine = append(engine, i)
		case serviceParents[s.name]:
			service = append(service, i)
		case submitParents[s.name]:
			submits[s.job] = append(submits[s.job], i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	byStart(engine)
	byStart(service)

	parent := make([]int, len(spans))
	for i, s := range spans {
		parent[i] = -1
		if p, ok := byID[s.parent]; ok && s.parent != 0 {
			parent[i] = p
			continue
		}
		switch {
		case s.name == "service.submit":
			for _, p := range submits[s.job] {
				if encloses(spans[p], s) {
					parent[i] = p
				}
			}
		case engineParents[s.name]:
			parent[i] = enclosing(spans, service, s)
		case !strings.HasPrefix(s.name, "bench.") && !strings.HasPrefix(s.name, "service."):
			parent[i] = enclosing(spans, engine, s)
		}
	}

	children := make(map[int][][2]int64)
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], [2]int64{spans[i].start, spans[i].end})
		}
	}
	out := map[string]layerSelf{}
	for i, s := range spans {
		ls := out[s.name]
		ls.count++
		ls.totalNs += s.end - s.start
		ls.selfNs += (s.end - s.start) - covered(s.start, s.end, children[i])
		out[s.name] = ls
	}
	return out
}

func encloses(p, c span) bool { return p.start <= c.start && c.end <= p.end }

// enclosing returns the innermost span among cands (sorted by start)
// that encloses s, or -1.
func enclosing(spans []span, cands []int, s span) int {
	// The latest-starting candidate that encloses s is the innermost one.
	// Candidates of one kind run one after another, so an enclosing one
	// is a few steps back at most; the walk is capped for the spans that
	// have none.
	j := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].start > s.start }) - 1
	for steps := 0; j >= 0 && steps < 64; j, steps = j-1, steps+1 {
		if encloses(spans[cands[j]], s) {
			return cands[j]
		}
	}
	return -1
}

// covered returns how much of [start, end) the intervals cover, counting
// overlapping intervals (parallel children) once.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], start), min(iv[1], end)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerOf maps a span name to its module: "criticalworks.dp" → "criticalworks".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}
