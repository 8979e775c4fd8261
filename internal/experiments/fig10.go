package experiments

import (
	"fmt"

	"cornflakes/internal/core"
	"cornflakes/internal/driver"
	"cornflakes/internal/nic"
	"cornflakes/internal/workloads"
)

// Fig10 reproduces Figure 10: generality of the 512-byte threshold across
// NICs. For payloads totalling 1024 bytes split into 1–6 scatter-gather
// values (the Intel E810 allows at most 8 entries, §6.3), it compares
// all-SG vs all-copy on both an Intel E810 and a Mellanox CX-6 profile.
// Paper: on both NICs, scatter-gather wins exactly when values are 512
// bytes or larger.
func Fig10(sc Scale) *Report {
	r := &Report{
		ID:     "fig10",
		Title:  "1024B payload across NICs: %Δ max tput, all-SG vs all-copy",
		Header: []string{"NIC", "1x1024", "2x512", "4x256", "6x170"},
	}
	const total = 1024
	entries := []int{1, 2, 4, 6}
	profiles := []nic.Profile{nic.IntelE810(), nic.MellanoxCX6()}
	// 2 NICs × 4 entry counts; each cell measures an independent
	// SG-vs-copy pair: %Δ max tput, all-SG vs all-copy.
	grid := make([]float64, len(profiles)*len(entries))
	forEach(sc.workers(), len(grid), func(i int) {
		prof, k := profiles[i/len(entries)], entries[i%len(entries)]
		seg := total / k
		keys := (16 << 20) / total
		if keys > 16*sc.StoreKeys {
			keys = 16 * sc.StoreKeys
		}
		gen := workloads.NewYCSB(keys, seg, k)
		sg := kvCapacity(kvOpts{
			Sys: driver.SysCornflakes, Gen: gen, Profile: prof, SmallCache: true,
			Threshold: core.ThresholdAllZeroCopy, ThresholdSet: true, Scale: sc, Seed: 110,
		})
		cp := kvCapacity(kvOpts{
			Sys: driver.SysCornflakes, Gen: gen, Profile: prof, SmallCache: true,
			Threshold: core.ThresholdAllCopy, ThresholdSet: true, Scale: sc, Seed: 110,
		})
		grid[i] = pct(sg.AchievedRps, cp.AchievedRps)
	})
	diffs := map[string]map[int]float64{}
	for pi, prof := range profiles {
		row := []string{prof.Name}
		diffs[prof.Name] = map[int]float64{}
		for ki, k := range entries {
			d := grid[pi*len(entries)+ki]
			diffs[prof.Name][k] = d
			row = append(row, fmt.Sprintf("%+.1f%%", d))
		}
		r.Rows = append(r.Rows, row)
	}
	for _, prof := range profiles {
		d := diffs[prof.Name]
		r.AddCheck(fmt.Sprintf("%s: SG wins at 512B+ values", prof.Name),
			d[1] > 0 && d[2] > 0,
			"1024B %+.1f%%, 512B %+.1f%%", d[1], d[2])
		r.AddCheck(fmt.Sprintf("%s: copy wins below 512B values", prof.Name),
			d[6] < 0,
			"170B %+.1f%% (256B %+.1f%%)", d[6], d[4])
	}
	r.Notes = append(r.Notes,
		"E810 supports at most 8 SG entries, so only up to 6 values are compared (§6.3)",
		"paper: the 512-byte threshold is consistent across both NICs")
	return r
}
