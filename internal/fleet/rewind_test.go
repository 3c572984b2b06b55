package fleet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"awgsim/internal/fault"
	"awgsim/internal/fleet"
)

// rewindDigest pins one fleet run: the SHA-256 of its rendered Result and
// of each workload's metrics.Result JSON.
type rewindDigest struct {
	fleet     string
	workloads []string
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func digestOf(t *testing.T, r *fleet.Result) rewindDigest {
	t.Helper()
	d := rewindDigest{fleet: sha([]byte(r.String()))}
	for _, w := range r.Workloads {
		b, err := json.Marshal(w.Result)
		if err != nil {
			t.Fatal(err)
		}
		d.workloads = append(d.workloads, sha(b))
	}
	return d
}

// rewindRecord holds the digests of the runs TestRewindsMatchParentRecord
// drives, recorded when rewinds still restored machine snapshots.
var rewindRecord = map[string]rewindDigest{
	"Timeout/thermal-wave": {
		"b8990d93e4868f33168a1cb0550d9070a5454829121ac36a85bb67c628854b24",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"9bcecd599be078db420636c87b859a04dde3b8e2a76ab85c5584a2a5b7857b7f",
		},
	},
	"Timeout/ecc-scrub": {
		"bc9ee00782a91ecab283383ee9d536f788d837fa810284a48def8f434eca81e4",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"9bcecd599be078db420636c87b859a04dde3b8e2a76ab85c5584a2a5b7857b7f",
		},
	},
	"Timeout/mixed": {
		"3dbc18d637b3bba3a15d56a6606aed03558df99b2ff518dbb2690f7e4f720522",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"ff71d065a342736f7f0f44b4ec821fed63b7dfe89b3f0f8024cddefab4ca8f52",
		},
	},
	"Timeout/rand-1": {
		"ee13bd71ab3f76a1b049d85a0b814984826fb380d044956b41d89f655eba3c28",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"9bcecd599be078db420636c87b859a04dde3b8e2a76ab85c5584a2a5b7857b7f",
		},
	},
	"MonNR-One/thermal-wave": {
		"19ffbd5045f73c324776227c03b3eb84907504145a0679019f3cd21b3f1c0d28",
		[]string{
			"97610ba40f060443f651d79c8bc2e4a926cbe32d1314fee11c62e5bef4256a37",
			"53f28b48deb143cc7c616231a55bad5f8b5651c4962ce12be8f007ce5a8a8d8d",
			"934b16d0b9f68e88fcc9f460ef44d0f2cd8801f9265ac65174a67c0651470572",
			"c40979384f9fb37faad31a72ad127df1a25ee270744ccc04910e4e196e69cb98",
		},
	},
	"MonNR-One/ecc-scrub": {
		"95ac9716907d17f1f22c761de0d80c263f821852aa05437b7ae6f7daf0c30f4c",
		[]string{
			"53ebc784f88883109144fe825e2a0d850113eba75c833d0566c932726fad5f3d",
			"4def2dfbba3836ec796c6979e75c923f53189cc41f32b97a21487057d6c3c6c1",
			"934b16d0b9f68e88fcc9f460ef44d0f2cd8801f9265ac65174a67c0651470572",
			"c40979384f9fb37faad31a72ad127df1a25ee270744ccc04910e4e196e69cb98",
		},
	},
	"MonNR-One/mixed": {
		"790ebad047b258ccccf4c98f8a9e8b23e402b625bf7ca64a43c957904f6c50bf",
		[]string{
			"53ebc784f88883109144fe825e2a0d850113eba75c833d0566c932726fad5f3d",
			"4def2dfbba3836ec796c6979e75c923f53189cc41f32b97a21487057d6c3c6c1",
			"934b16d0b9f68e88fcc9f460ef44d0f2cd8801f9265ac65174a67c0651470572",
			"2f40f25a95b9d0b99003e3db549f7b7a9ea849536028a8bef15a8df7d5f6094a",
		},
	},
	"MonNR-One/rand-1": {
		"88fa3b1ebc69c9e35860a5becc4fd2ddfc5c68d86ba6c8b2665196e54c97eb28",
		[]string{
			"c4c58f1f971121d4e0221808169d737596262ae7e1e5b72b9908818b9ee5bdc9",
			"24fe1ff69126dd7db7b7348c467c1e518abaff9412b10123ff604b4aac860b0d",
			"934b16d0b9f68e88fcc9f460ef44d0f2cd8801f9265ac65174a67c0651470572",
			"c40979384f9fb37faad31a72ad127df1a25ee270744ccc04910e4e196e69cb98",
		},
	},
	"AWG/thermal-wave": {
		"53c59bb7b37a56604455479144e93d731689f5cbef84dff5dad3a46385d5e69f",
		[]string{
			"326c493b039b7a0b087e0cedf1b2a8a2fe54a42b2f0579c1d16ad65bc318ee99",
			"7ada14524d3585e22db4f22ef4d344674007afeb8e8e9548905ce5336daa7381",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"5c0cb85eb2d61f386aeae615c93224a5b502685b995ff6ab5d41e036d7fdad50",
		},
	},
	"AWG/ecc-scrub": {
		"83ccb0dcb98de9772797557c9b84fea05298045e3afe664020a79a979eb6a12e",
		[]string{
			"abe26f91edfac0d59a656b83c7b12faaeda3d99bfe6e5919f15c379446eafc51",
			"a3ba493e054162799d6c15d26a27bde80df79535854ddcdffe999ec558e319f8",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"5c0cb85eb2d61f386aeae615c93224a5b502685b995ff6ab5d41e036d7fdad50",
		},
	},
	"AWG/mixed": {
		"a0c3aec3e856f445aba5a64d7463a605585e00f3748c943203a7407bfdeae846",
		[]string{
			"abe26f91edfac0d59a656b83c7b12faaeda3d99bfe6e5919f15c379446eafc51",
			"a3ba493e054162799d6c15d26a27bde80df79535854ddcdffe999ec558e319f8",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"350bbab7c0d55935f8248c46a9c968103f5aa59411609a496a2f1abf55165b2d",
		},
	},
	"AWG/rand-1": {
		"29f64c921653d12bc44e8969eced0aa75497eeb56549a0e5c682773958ca9072",
		[]string{
			"22c2b1b4e567a7686bfd5246515e3b373dc15a372ce10c3ea3dda89ee1bdc60d",
			"ab66996a12f311f9894dcbb026978e6904203ceea388391b3142375af22f3711",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"5c0cb85eb2d61f386aeae615c93224a5b502685b995ff6ab5d41e036d7fdad50",
		},
	},
	"Timeout/late-replay": {
		"6e52372f9fc4c5b8a1139f5819338a2818fb7b077e1294e7df581f3d414ce8c5",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"9bcecd599be078db420636c87b859a04dde3b8e2a76ab85c5584a2a5b7857b7f",
		},
	},
	"MonNR-One/late-replay": {
		"acea870f501583ef8b8ad747d19a87cd546c89487fa24ad66c1177e3854a47b3",
		[]string{
			"53ebc784f88883109144fe825e2a0d850113eba75c833d0566c932726fad5f3d",
			"4def2dfbba3836ec796c6979e75c923f53189cc41f32b97a21487057d6c3c6c1",
			"934b16d0b9f68e88fcc9f460ef44d0f2cd8801f9265ac65174a67c0651470572",
			"c40979384f9fb37faad31a72ad127df1a25ee270744ccc04910e4e196e69cb98",
		},
	},
	"AWG/late-replay": {
		"bc77604dfc0c1da1fa46707bc42decfb6d9f10bcaaf8b30fe65bfd8bc7cbbe34",
		[]string{
			"abe26f91edfac0d59a656b83c7b12faaeda3d99bfe6e5919f15c379446eafc51",
			"a3ba493e054162799d6c15d26a27bde80df79535854ddcdffe999ec558e319f8",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"5c0cb85eb2d61f386aeae615c93224a5b502685b995ff6ab5d41e036d7fdad50",
		},
	},
	"Timeout/early-loss": {
		"53d5d25cb568961f93365bbed6acee9cc18a2da4f12bfa5bc80f893ce3694510",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"9bcecd599be078db420636c87b859a04dde3b8e2a76ab85c5584a2a5b7857b7f",
		},
	},
	"MonNR-One/early-loss": {
		"71f3e2c8f46a8e7fa9721652b022b03ea51b91244875977aeaf1d8c0d9c690f1",
		[]string{
			"53ebc784f88883109144fe825e2a0d850113eba75c833d0566c932726fad5f3d",
			"838527d3dd1706565ac3e7732f187d2012ccc9d9093b8353cb0fefeb5740fb04",
			"934b16d0b9f68e88fcc9f460ef44d0f2cd8801f9265ac65174a67c0651470572",
			"c40979384f9fb37faad31a72ad127df1a25ee270744ccc04910e4e196e69cb98",
		},
	},
	"AWG/early-loss": {
		"aaae6a350836389f8c43b0948f0067ae40262dfeab776b8a9f59160cf2607f68",
		[]string{
			"abe26f91edfac0d59a656b83c7b12faaeda3d99bfe6e5919f15c379446eafc51",
			"2a64af0ab686553aae87743a6ef0f0f82ce852c559ad49f9d4ea5e8508e5ce72",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"5c0cb85eb2d61f386aeae615c93224a5b502685b995ff6ab5d41e036d7fdad50",
		},
	},
}

// lateReplay derates devices between checkpoint ticks and rewinds them
// before the next tick, so each rebuild's thermal log holds entries past
// its checkpoint that the replay must leave out: an ECC rewind after a
// throttle, a device loss after a throttle (its workload moves onto
// device 0), and an ECC rewind of both workloads there after the throttle
// clears.
var lateReplay = fleet.Schedule{Name: "late-replay", Events: []fleet.Event{
	{At: 13_000, Kind: fleet.ThermalThrottle, Device: 0, Scale: 3},
	{At: 16_000, Kind: fleet.ECCError, Device: 0, Page: 0, Pages: 2},
	{At: 24_000, Kind: fleet.ThermalThrottle, Device: 1, Scale: 2},
	{At: 27_000, Kind: fleet.DeviceLoss, Device: 1},
	{At: 33_000, Kind: fleet.ThermalThrottle, Device: 0, Scale: 1},
	{At: 36_000, Kind: fleet.ECCError, Device: 0, Page: 0, Pages: 2},
}}

// earlyLoss loses a device after the first 50-cycle checkpoint tick,
// when each workload's engine has fired its cycle-0 events and nothing
// since: the rewind returns to a cycle-0 checkpoint that is not the
// unstarted machine, and the migration's pause counts the calendar the
// cycle-0 events left.
var earlyLoss = fleet.Schedule{Name: "early-loss", Events: []fleet.Event{
	{At: 75, Kind: fleet.DeviceLoss, Device: 1},
}}

// TestRewindsMatchParentRecord pins the rewinds the fleet experiment never
// takes: there every rewind returns to a cycle-0 checkpoint, while here
// CheckpointEvery is 10k fleet cycles, so ECC rewinds and migrations
// replay to late checkpoints whose thermal log is non-empty, migrations
// land on devices the workload already armed, scale-1 re-impositions
// clear an active JitterCP skew, and (lateReplay) the log runs past the
// checkpoint being rewound to; earlyLoss, at a 50-cycle cadence, rewinds
// to a started cycle-0 checkpoint. Each run's rendered fleet log and
// every workload's Result must match, bit for bit, the record taken when
// those rewinds restored snapshots instead of re-running.
func TestRewindsMatchParentRecord(t *testing.T) {
	scripted := fleet.Scripted(4, 5_000)
	planes := []fleet.Schedule{
		scripted[4], // thermal-wave
		scripted[5], // ecc-scrub
		scripted[6], // mixed
		fleet.Random(1, 4, 2, 5_000, 40_000),
		lateReplay,
		earlyLoss,
	}
	for _, policy := range []string{"Timeout", "MonNR-One", "AWG"} {
		for _, plane := range planes {
			cfg := tinyFleet(policy, plane)
			if plane.Name == earlyLoss.Name {
				cfg.CheckpointEvery = 50
			}
			cfg.DeviceFaults = make([]fault.Schedule, cfg.Devices)
			for d := range cfg.DeviceFaults {
				cfg.DeviceFaults[d] = fault.Random(uint64(d+1), 2, 5_000, 40_000)
			}
			key := policy + "/" + plane.Name
			got := digestOf(t, run(t, cfg))
			want, ok := rewindRecord[key]
			if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: digests moved\n  got:  %#v\n  want: %#v", key, got, want)
			}
		}
	}
}
