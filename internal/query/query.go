// Package query implements the control-plane query front-end of §4.3:
// given the decoded full-key table, answer any partial-key query by
// aggregation —
//
//	SELECT g(k_F), SUM(Size) FROM table GROUP BY g(k_F)
//
// Aggregate is the generic engine; Engine wraps a decoded table with the
// Mask-based convenience API used by the experiments and by cocoquery.
package query

import (
	"fmt"
	"sort"
	"strings"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/sketch"
)

// Aggregate groups a full-key table by the mapping g and sums sizes.
// This is Definition 1 applied to estimates: the partial-key estimate is
// the subset sum of the full-key estimates.
func Aggregate[F, P flowkey.Key](table map[F]uint64, g func(F) P) map[P]uint64 {
	out := make(map[P]uint64)
	for k, v := range table {
		out[g(k)] += v
	}
	return out
}

// ByMask aggregates a 5-tuple table under a field/prefix mask. The
// result is always a fresh map, so callers may mutate it.
func ByMask(table map[flowkey.FiveTuple]uint64, m flowkey.Mask) map[flowkey.FiveTuple]uint64 {
	if m.IsFull() {
		out := make(map[flowkey.FiveTuple]uint64, len(table))
		for k, v := range table {
			out[k] = v
		}
		return out
	}
	return byMask(table, m)
}

// byMask aggregates under a partial mask into a map sized from the
// table, so the hot loop never grows it.
func byMask(table map[flowkey.FiveTuple]uint64, m flowkey.Mask) map[flowkey.FiveTuple]uint64 {
	out := make(map[flowkey.FiveTuple]uint64, len(table))
	for k, v := range table {
		out[m.Apply(k)] += v
	}
	return out
}

// Engine holds one decoded full-key table and serves partial-key
// queries against it. Build one per measurement window.
type Engine struct {
	table map[flowkey.FiveTuple]uint64
}

// NewEngine wraps a decoded table (as returned by a Decoder).
func NewEngine(table map[flowkey.FiveTuple]uint64) *Engine {
	return &Engine{table: table}
}

// FullTable returns the underlying full-key table (not a copy).
func (e *Engine) FullTable() map[flowkey.FiveTuple]uint64 { return e.table }

// Query returns the estimated size of one partial-key flow: the sum of
// the recorded full-key flows mapping to it.
func (e *Engine) Query(m flowkey.Mask, partial flowkey.FiveTuple) uint64 {
	var sum uint64
	want := m.Apply(partial)
	for k, v := range e.table {
		if m.Apply(k) == want {
			sum += v
		}
	}
	return sum
}

// GroupBy answers the SQL statement of §4.3 for one mask.
func (e *Engine) GroupBy(m flowkey.Mask) map[flowkey.FiveTuple]uint64 {
	return ByMask(e.table, m)
}

// Top returns the k largest partial-key flows under a mask in
// sketch.TopK's rank order (none when k <= 0). The identity mask ranks
// the decoded table in place; any other mask aggregates once and
// ranks the groups, so a call costs one pass plus an O(n log k)
// selection.
func (e *Engine) Top(m flowkey.Mask, k int) []sketch.Entry[flowkey.FiveTuple] {
	switch {
	case k <= 0:
		return []sketch.Entry[flowkey.FiveTuple]{}
	case m.IsFull():
		return sketch.TopK(e.table, k)
	}
	return sketch.TopK(byMask(e.table, m), k)
}

// All returns every partial-key flow under a mask in rank order: a
// full sort of the groups.
func (e *Engine) All(m flowkey.Mask) []sketch.Entry[flowkey.FiveTuple] {
	// A mask never yields more groups than the table has rows.
	return e.Top(m, len(e.table))
}

// SQL parses and executes the restricted SQL dialect of the paper:
//
//	SELECT <mask>, SUM(Size) FROM table GROUP BY <mask>
//
// where <mask> uses the flowkey mask syntax ("SrcIP/24+DstIP"). The two
// mask occurrences must match. Every row is returned, sorted by size
// descending.
func (e *Engine) SQL(stmt string) ([]sketch.Entry[flowkey.FiveTuple], error) {
	m, err := ParseSQL(stmt)
	if err != nil {
		return nil, err
	}
	return e.All(m), nil
}

// ParseSQL extracts the grouping mask from the restricted SQL dialect.
func ParseSQL(stmt string) (flowkey.Mask, error) {
	s := strings.Join(strings.Fields(stmt), " ") // normalize whitespace
	up := strings.ToUpper(s)
	if !strings.HasPrefix(up, "SELECT ") {
		return flowkey.Mask{}, fmt.Errorf("query: statement must start with SELECT")
	}
	gb := strings.Index(up, " GROUP BY ")
	if gb < 0 {
		return flowkey.Mask{}, fmt.Errorf("query: missing GROUP BY")
	}
	groupExpr := strings.TrimSpace(s[gb+len(" GROUP BY "):])

	selectPart := strings.TrimSpace(s[len("SELECT "):gb])
	from := strings.Index(strings.ToUpper(selectPart), " FROM ")
	if from < 0 {
		return flowkey.Mask{}, fmt.Errorf("query: missing FROM")
	}
	cols := strings.Split(selectPart[:from], ",")
	if len(cols) != 2 {
		return flowkey.Mask{}, fmt.Errorf("query: want SELECT <key>, SUM(Size)")
	}
	keyExpr := strings.TrimSpace(cols[0])
	sumExpr := strings.ToUpper(strings.ReplaceAll(cols[1], " ", ""))
	if sumExpr != "SUM(SIZE)" {
		return flowkey.Mask{}, fmt.Errorf("query: second column must be SUM(Size), got %q", strings.TrimSpace(cols[1]))
	}

	keyMask, err := flowkey.ParseMask(keyExpr)
	if err != nil {
		return flowkey.Mask{}, err
	}
	groupMask, err := flowkey.ParseMask(groupExpr)
	if err != nil {
		return flowkey.Mask{}, err
	}
	if keyMask != groupMask {
		return flowkey.Mask{}, fmt.Errorf("query: SELECT key %q and GROUP BY key %q differ", keyExpr, groupExpr)
	}
	return keyMask, nil
}

// FormatRows renders rows as an aligned two-column table for CLI output.
func FormatRows(m flowkey.Mask, rows []sketch.Entry[flowkey.FiveTuple], limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %12s\n", m.String(), "Size")
	if limit <= 0 || limit > len(rows) {
		limit = len(rows)
	}
	for _, r := range rows[:limit] {
		fmt.Fprintf(&b, "%-44s %12d\n", RenderPartial(m, r.Key), r.Size)
	}
	return b.String()
}

// RenderPartial prints only the fields of k retained by the mask — the
// row-key rendering shared by FormatRows and the JSON query endpoint
// (internal/window).
func RenderPartial(m flowkey.Mask, k flowkey.FiveTuple) string {
	if m.IsFull() {
		return k.String()
	}
	var parts []string
	if m.Bits[flowkey.FieldSrcIP] > 0 {
		parts = append(parts, fmt.Sprintf("%v", flowkey.IPv4(k.SrcIP)))
	}
	if m.Bits[flowkey.FieldDstIP] > 0 {
		parts = append(parts, fmt.Sprintf("->%v", flowkey.IPv4(k.DstIP)))
	}
	if m.Bits[flowkey.FieldSrcPort] > 0 {
		parts = append(parts, fmt.Sprintf("sport=%d", k.SrcPort))
	}
	if m.Bits[flowkey.FieldDstPort] > 0 {
		parts = append(parts, fmt.Sprintf("dport=%d", k.DstPort))
	}
	if m.Bits[flowkey.FieldProto] > 0 {
		parts = append(parts, fmt.Sprintf("proto=%d", k.Proto))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
