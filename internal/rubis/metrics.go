package rubis

import (
	"time"

	"repro/internal/stats"
)

// Metrics aggregates client-observed performance. In-window numbers cover
// the runtime stage only (ramps excluded), matching how RUBiS reports
// throughput and response time; totals cover the whole session (the
// request counts of Fig. 8/9 accumulate over the fixed test duration).
type Metrics struct {
	WindowStart time.Duration
	WindowEnd   time.Duration

	Issued         int
	TotalCompleted int

	InWindow    int
	sumRT       time.Duration
	MaxRT       time.Duration
	PerTx       map[string]int
	perTxLatSum map[string]time.Duration

	// hist collects in-window response times for percentile reporting —
	// an extension: the paper reports averages only.
	hist *stats.Histogram
}

func newMetrics(start, end time.Duration) *Metrics {
	return &Metrics{
		WindowStart: start,
		WindowEnd:   end,
		PerTx:       make(map[string]int),
		perTxLatSum: make(map[string]time.Duration),
		hist:        stats.NewLatencyHistogram(),
	}
}

func (m *Metrics) record(tx *Transaction, rt, completedAt time.Duration) {
	m.TotalCompleted++
	m.PerTx[tx.Name]++
	m.perTxLatSum[tx.Name] += rt
	if completedAt >= m.WindowStart && completedAt < m.WindowEnd {
		m.InWindow++
		m.sumRT += rt
		m.hist.Add(rt)
		if rt > m.MaxRT {
			m.MaxRT = rt
		}
	}
}

// Throughput returns in-window requests per second — the Fig. 12/16 y-axis.
func (m *Metrics) Throughput() float64 {
	w := m.WindowEnd - m.WindowStart
	if w <= 0 {
		return 0
	}
	return float64(m.InWindow) / w.Seconds()
}

// AvgResponseTime returns the in-window mean response time — Fig. 13/16.
func (m *Metrics) AvgResponseTime() time.Duration {
	if m.InWindow == 0 {
		return 0
	}
	return m.sumRT / time.Duration(m.InWindow)
}

// ResponseTimePercentile returns the in-window response-time quantile
// (approximate, log-bucketed).
func (m *Metrics) ResponseTimePercentile(q float64) time.Duration {
	return m.hist.Percentile(q)
}

// TxAvgResponseTime returns one transaction type's session mean.
func (m *Metrics) TxAvgResponseTime(name string) time.Duration {
	n := m.PerTx[name]
	if n == 0 {
		return 0
	}
	return m.perTxLatSum[name] / time.Duration(n)
}
