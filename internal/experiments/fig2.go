package experiments

import (
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
)

// Fig2 reproduces Figure 2: p99 latency vs achieved load for the echo
// server (two 2048-byte fields) across no-serialization, zero-copy,
// one-copy, two-copy, and the three software libraries. The paper's
// ordering: no-ser (77 Gbps) > zero-copy (48) > one-copy (28) > two-copy
// (23) > libraries (13–15).
func Fig2(sc Scale) *Report {
	r := &Report{
		ID:     "fig2",
		Title:  "Echo server: max achieved load per approach (two 2048B fields)",
		Header: []string{"approach", "max Gbps", "p99 us @ max"},
	}
	type arm struct {
		name string
		mode driver.EchoMode
		sys  driver.System
	}
	arms := []arm{
		{"No serialization", driver.EchoNoSer, driver.SysCornflakes},
		{"Zero-copy", driver.EchoZeroCopy, driver.SysCornflakes},
		{"One-copy", driver.EchoOneCopy, driver.SysCornflakes},
		{"Two-copy", driver.EchoTwoCopy, driver.SysCornflakes},
		{"Protobuf", driver.EchoLib, driver.SysProtobuf},
		{"FlatBuffers", driver.EchoLib, driver.SysFlatBuffers},
		{"Cap'n Proto", driver.EchoLib, driver.SysCapnProto},
	}
	results := make([]loadgen.Result, len(arms))
	forEach(sc.workers(), len(arms), func(i int) {
		a := arms[i]
		o := echoOpts{Mode: a.mode, Sys: a.sys, FieldSize: 2048, NumFields: 2, Scale: sc, Seed: 20}
		results[i] = o.probe().capacity(200_000)
	})
	gbps := map[string]float64{}
	for i, a := range arms {
		res := results[i]
		gbps[a.name] = res.AchievedGbps
		r.Rows = append(r.Rows, []string{a.name, f1(res.AchievedGbps), f1(res.Latency.Quantile(0.99).Microseconds())})
	}
	r.AddCheck("no-serialization is the upper bound",
		gbps["No serialization"] > gbps["Zero-copy"],
		"no-ser %.1f vs zero-copy %.1f Gbps", gbps["No serialization"], gbps["Zero-copy"])
	r.AddCheck("zero-copy beats one-copy",
		gbps["Zero-copy"] > gbps["One-copy"],
		"%.1f vs %.1f Gbps", gbps["Zero-copy"], gbps["One-copy"])
	r.AddCheck("one-copy beats two-copy",
		gbps["One-copy"] > gbps["Two-copy"],
		"%.1f vs %.1f Gbps", gbps["One-copy"], gbps["Two-copy"])
	r.AddCheck("two-copy beats every library",
		gbps["Two-copy"] > gbps["Protobuf"] && gbps["Two-copy"] > gbps["FlatBuffers"] && gbps["Two-copy"] > gbps["Cap'n Proto"],
		"two-copy %.1f vs libs %.1f/%.1f/%.1f", gbps["Two-copy"], gbps["Protobuf"], gbps["FlatBuffers"], gbps["Cap'n Proto"])
	r.AddCheck("zero-copy gains are large (paper: ~2x libraries)",
		gbps["Zero-copy"] > 1.7*gbps["FlatBuffers"],
		"zero-copy %.1f vs FlatBuffers %.1f", gbps["Zero-copy"], gbps["FlatBuffers"])
	r.Notes = append(r.Notes,
		"paper: no-ser 77, zero-copy 48, one-copy 28, two-copy 23, libraries 13-15 Gbps")
	return r
}
