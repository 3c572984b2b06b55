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
// drives, recorded when rewinds still restored machine snapshots. The
// fleet logs of the runs that rewind were re-recorded when checkpoints
// began to mark the pacing position instead of the engine clock: a
// rewind's lost cycles now count from that position. No workload's
// Result moved.
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
		"d04ed9a6f63f342bcebbfd408769a52f3897c3f3cf168b967d9f04f47b680653",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"9bcecd599be078db420636c87b859a04dde3b8e2a76ab85c5584a2a5b7857b7f",
		},
	},
	"Timeout/mixed": {
		"5194dc04d1407873d20235f5fc224565869e4fe698afde1e15689457cd49aaa7",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"ff71d065a342736f7f0f44b4ec821fed63b7dfe89b3f0f8024cddefab4ca8f52",
		},
	},
	"Timeout/rand-1": {
		"7ee6b184099a32c37dcbfc82ecd67eb3875a840daf93589f274de9899a5c11d4",
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
		"97162674db289f04fe19d3ff70618e3c8b3a7bd09dd4f0eae45cc343a1bd777c",
		[]string{
			"53ebc784f88883109144fe825e2a0d850113eba75c833d0566c932726fad5f3d",
			"4def2dfbba3836ec796c6979e75c923f53189cc41f32b97a21487057d6c3c6c1",
			"934b16d0b9f68e88fcc9f460ef44d0f2cd8801f9265ac65174a67c0651470572",
			"c40979384f9fb37faad31a72ad127df1a25ee270744ccc04910e4e196e69cb98",
		},
	},
	"MonNR-One/mixed": {
		"dd74ed9e370d011b5b613fb3166588077d96bd46b11574794c0a092964a42cd3",
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
		"9051c84f4293a3a8a02abc4efaccfd4fa1d4f0976f16fbde60f02ccbf441af3c",
		[]string{
			"abe26f91edfac0d59a656b83c7b12faaeda3d99bfe6e5919f15c379446eafc51",
			"a3ba493e054162799d6c15d26a27bde80df79535854ddcdffe999ec558e319f8",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"5c0cb85eb2d61f386aeae615c93224a5b502685b995ff6ab5d41e036d7fdad50",
		},
	},
	"AWG/mixed": {
		"5dc3990c39ddf9f1950f9463b55e6488fad2b5ae839941009294823b0b838e0b",
		[]string{
			"abe26f91edfac0d59a656b83c7b12faaeda3d99bfe6e5919f15c379446eafc51",
			"a3ba493e054162799d6c15d26a27bde80df79535854ddcdffe999ec558e319f8",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"350bbab7c0d55935f8248c46a9c968103f5aa59411609a496a2f1abf55165b2d",
		},
	},
	"AWG/rand-1": {
		"b12a52ae3536273f38b561423fc0ef598b4dd4e9fc1a5e4c05563c0eca32fabc",
		[]string{
			"22c2b1b4e567a7686bfd5246515e3b373dc15a372ce10c3ea3dda89ee1bdc60d",
			"ab66996a12f311f9894dcbb026978e6904203ceea388391b3142375af22f3711",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"5c0cb85eb2d61f386aeae615c93224a5b502685b995ff6ab5d41e036d7fdad50",
		},
	},
	"Timeout/late-replay": {
		"31acb460614d8f598b817d07660b4976e30553b3d0064ace0478944535319848",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"9bcecd599be078db420636c87b859a04dde3b8e2a76ab85c5584a2a5b7857b7f",
		},
	},
	"MonNR-One/late-replay": {
		"b1366b1c4931839935d5415a1e10482f7de5ea6025a1cc17a32f4ae492c71764",
		[]string{
			"53ebc784f88883109144fe825e2a0d850113eba75c833d0566c932726fad5f3d",
			"4def2dfbba3836ec796c6979e75c923f53189cc41f32b97a21487057d6c3c6c1",
			"934b16d0b9f68e88fcc9f460ef44d0f2cd8801f9265ac65174a67c0651470572",
			"c40979384f9fb37faad31a72ad127df1a25ee270744ccc04910e4e196e69cb98",
		},
	},
	"AWG/late-replay": {
		"802c8219a084d13ead140e1ffad9b5deea6b9e6509e035ccf2485939730b3e27",
		[]string{
			"abe26f91edfac0d59a656b83c7b12faaeda3d99bfe6e5919f15c379446eafc51",
			"a3ba493e054162799d6c15d26a27bde80df79535854ddcdffe999ec558e319f8",
			"12a40bbce3eb8cb063955eeaacdd733723bed7ed13b7b2626ec0a7a5b7529c6c",
			"5c0cb85eb2d61f386aeae615c93224a5b502685b995ff6ab5d41e036d7fdad50",
		},
	},
	"Timeout/early-loss": {
		"fb73d56e0df71f8f4a505c6266df08c72d9c0df282dd07502353525dba8a7aaf",
		[]string{
			"f31b4cf0354ebc486918d178458540307e247d28b99d62acd2a84e597be1e634",
			"caf554cf3b70c7f361bafdb622e343155b81fe191271ee622ea4d4f84ecc3ae8",
			"d8e6247dde2cf8319ee8fdb7dc24e00691d683fb076fb818fd8e44618f54ad0d",
			"9bcecd599be078db420636c87b859a04dde3b8e2a76ab85c5584a2a5b7857b7f",
		},
	},
	"MonNR-One/early-loss": {
		"1373c465e6582f621d7c814b91e0a935e1f721b8c5bc076ccd13f3a381bb0061",
		[]string{
			"53ebc784f88883109144fe825e2a0d850113eba75c833d0566c932726fad5f3d",
			"838527d3dd1706565ac3e7732f187d2012ccc9d9093b8353cb0fefeb5740fb04",
			"934b16d0b9f68e88fcc9f460ef44d0f2cd8801f9265ac65174a67c0651470572",
			"c40979384f9fb37faad31a72ad127df1a25ee270744ccc04910e4e196e69cb98",
		},
	},
	"AWG/early-loss": {
		"09495c7e4bb4ca1e180400368fba82bbe544bef9777952d3eb62af0ec401e11c",
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
// since: the rewind returns to a checkpoint past the unstarted machine
// whose engine clock still reads 0, and the migration's pause counts the
// calendar the cycle-0 events left.
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
// to a started checkpoint whose engine clock reads 0. Each run's rendered
// fleet log and every workload's Result must match, bit for bit, the
// record (see rewindRecord).
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
