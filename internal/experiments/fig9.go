package experiments

import (
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
)

// Fig9 reproduces Figure 9: echo latency percentiles over the TCP stack
// for raw packet echo, FlatBuffers, and Cornflakes, at a fixed moderate
// load. Paper: Cornflakes sits 18–27.8 µs below FlatBuffers at the tail
// while adding only 4.9–10.8 µs over a raw packet echo.
func Fig9(sc Scale) *Report {
	r := &Report{
		ID:     "fig9",
		Title:  "TCP echo latency percentiles (two 2048B fields)",
		Header: []string{"system", "p5", "p25", "p50", "p75", "p99 (us)"},
	}
	// Each row is an EchoServer over TCP-lite; the raw floor is the
	// one-copy echo, which sends the payload straight back.
	type echoRow struct {
		label string
		mode  driver.EchoMode
		sys   driver.System
	}
	rows := []echoRow{
		{"Raw packet echo", driver.EchoOneCopy, driver.SysCornflakes},
		{"FlatBuffers", driver.EchoLib, driver.SysFlatBuffers},
		{"Cornflakes", driver.EchoLib, driver.SysCornflakes},
	}
	const raw, fb, cf = 0, 1, 2
	hists := make([]*loadgen.Histogram, len(rows))
	service := make([]float64, len(rows))
	forEach(sc.workers(), len(rows), func(i int) {
		row := rows[i]
		tb := driver.NewTCPTestbed(nic.MellanoxCX6())
		driver.NewEchoServer(tb.Server, row.mode, row.sys, 2048, 2)
		res := loadgen.Run(sc.withWindow(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.TCP,
			Gen:    nopGen{},
			Client: &driver.EchoClient{Mode: row.mode, Sys: row.sys, N: tb.Client, FieldSize: 2048, NumFields: 2},
			// Fixed moderate load: the figure reports latency, not
			// saturation ("we encountered an issue sending at high packet
			// rates", §6.2.3 fn.9).
			RatePerS: 40_000,
			Seed:     100,
		}))
		hists[i] = res.Latency
		service[i] = float64(tb.Server.Core.BusyTime) / float64(tb.Server.Core.JobsDone)
	})
	for i, row := range rows {
		h := hists[i]
		r.Rows = append(r.Rows, []string{
			row.label,
			f1(h.Quantile(0.05).Microseconds()),
			f1(h.Quantile(0.25).Microseconds()),
			f1(h.Quantile(0.50).Microseconds()),
			f1(h.Quantile(0.75).Microseconds()),
			f1(h.Quantile(0.99).Microseconds()),
		})
	}
	cf99 := hists[cf].Quantile(0.99).Microseconds()
	fb99 := hists[fb].Quantile(0.99).Microseconds()
	raw99 := hists[raw].Quantile(0.99).Microseconds()
	r.AddCheck("Cornflakes tail below FlatBuffers over TCP",
		cf99 < fb99, "p99: CF %.1f vs FB %.1f us", cf99, fb99)
	r.AddCheck("Cornflakes adds modest overhead over raw packet echo",
		cf99 >= raw99 && cf99-raw99 < 40,
		"p99: CF %.1f vs raw %.1f us (+%.1f)", cf99, raw99, cf99-raw99)
	r.AddCheck("server cycles per echo: Cornflakes below FlatBuffers",
		service[cf] < service[fb],
		"service: raw %.0f, CF %.0f, FB %.0f ps/req",
		service[raw], service[cf], service[fb])
	return r
}
