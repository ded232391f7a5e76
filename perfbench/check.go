package main

import (
	"net"
	"sync/atomic"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/metrics"
	"cocosketch/internal/query"
	"cocosketch/internal/tasks"
	"cocosketch/internal/window"
)

// hhScores is the partial-key heavy-hitter accuracy of the ring's
// windowed GroupBy over rg against exact counts, averaged over the six
// flowkey.EvaluationMasks at tasks.DefaultThresholdFraction of the
// window's exact mass.
func hhScores(ring *window.Ring, rg window.Range, exact map[flowkey.FiveTuple]uint64) (f1, are float64, err error) {
	var total uint64
	for _, c := range exact {
		total += c
	}
	thr := tasks.Threshold(total, tasks.DefaultThresholdFraction)
	masks := flowkey.EvaluationMasks()
	for _, m := range masks {
		est, err := ring.GroupBy(rg, m)
		if err != nil {
			return 0, 0, err
		}
		truth := tasks.HeavyHitters(query.ByMask(exact, m), thr)
		res := metrics.Compare(truth, tasks.HeavyHitters(est, thr))
		f1 += res.F1
		are += metrics.ARE(truth, func(k flowkey.FiveTuple) uint64 { return est[k] })
	}
	n := float64(len(masks))
	return f1 / n, are / n, nil
}

// addCounts adds src into dst.
func addCounts(dst, src map[flowkey.FiveTuple]uint64) {
	for k, c := range src {
		dst[k] += c
	}
}

// sameTable reports whether two decode tables are identical.
func sameTable(a, b map[flowkey.FiveTuple]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// tableMass is the total of a decode table.
func tableMass(t map[flowkey.FiveTuple]uint64) uint64 {
	var s uint64
	for _, v := range t {
		s += v
	}
	return s
}

// corruptTable perturbs one entry of t in place (the negative control).
func corruptTable(t map[flowkey.FiveTuple]uint64) {
	for k := range t {
		t[k]++
		return
	}
	t[flowkey.FiveTuple{Proto: 255}] = 1
}

// countingConn counts the bytes an agent writes to the wire.
type countingConn struct {
	net.Conn
	written *atomic.Uint64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(uint64(n))
	return n, err
}
