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
	run := func(mode driver.TCPEchoMode) (*loadgen.Histogram, float64) {
		tb := driver.NewTCPTestbed(nic.MellanoxCX6())
		driver.NewTCPEchoServer(tb.Server, mode)
		var client loadgen.Client
		switch mode {
		case driver.TCPEchoRaw:
			client = &driver.EchoClient{Mode: driver.EchoNoSer, N: tb.Client, FieldSize: 2048, NumFields: 2}
		case driver.TCPEchoFlatBuffers:
			client = &driver.EchoClient{Mode: driver.EchoLib, Sys: driver.SysFlatBuffers, N: tb.Client, FieldSize: 2048, NumFields: 2}
		default:
			client = &driver.EchoClient{Mode: driver.EchoLib, Sys: driver.SysCornflakes, N: tb.Client, FieldSize: 2048, NumFields: 2}
		}
		res := loadgen.Run(sc.withWindow(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.TCP,
			Gen: nopGen{}, Client: client,
			// Fixed moderate load: the figure reports latency, not
			// saturation ("we encountered an issue sending at high packet
			// rates", §6.2.3 fn.9).
			RatePerS: 40_000,
			Seed:     100,
		}))
		perReq := float64(tb.Server.Core.BusyTime) / float64(tb.Server.Core.JobsDone)
		return res.Latency, perReq
	}
	modes := []driver.TCPEchoMode{driver.TCPEchoRaw, driver.TCPEchoFlatBuffers, driver.TCPEchoCornflakes}
	type modeRes struct {
		h      *loadgen.Histogram
		perReq float64
	}
	perMode := make([]modeRes, len(modes))
	forEach(sc.workers(), len(modes), func(i int) {
		perMode[i].h, perMode[i].perReq = run(modes[i])
	})
	hists := map[driver.TCPEchoMode]*loadgen.Histogram{}
	service := map[driver.TCPEchoMode]float64{}
	for i, mode := range modes {
		h := perMode[i].h
		hists[mode] = h
		service[mode] = perMode[i].perReq
		r.Rows = append(r.Rows, []string{
			mode.String(),
			f1(h.Quantile(0.05).Microseconds()),
			f1(h.Quantile(0.25).Microseconds()),
			f1(h.Quantile(0.50).Microseconds()),
			f1(h.Quantile(0.75).Microseconds()),
			f1(h.Quantile(0.99).Microseconds()),
		})
	}
	cf99 := hists[driver.TCPEchoCornflakes].Quantile(0.99).Microseconds()
	fb99 := hists[driver.TCPEchoFlatBuffers].Quantile(0.99).Microseconds()
	raw99 := hists[driver.TCPEchoRaw].Quantile(0.99).Microseconds()
	r.AddCheck("Cornflakes tail below FlatBuffers over TCP",
		cf99 < fb99, "p99: CF %.1f vs FB %.1f us", cf99, fb99)
	r.AddCheck("Cornflakes adds modest overhead over raw packet echo",
		cf99 >= raw99 && cf99-raw99 < 40,
		"p99: CF %.1f vs raw %.1f us (+%.1f)", cf99, raw99, cf99-raw99)
	r.AddCheck("server cycles per echo: Cornflakes below FlatBuffers",
		service[driver.TCPEchoCornflakes] < service[driver.TCPEchoFlatBuffers],
		"service: raw %.0f, CF %.0f, FB %.0f ps/req",
		service[driver.TCPEchoRaw], service[driver.TCPEchoCornflakes], service[driver.TCPEchoFlatBuffers])
	return r
}
