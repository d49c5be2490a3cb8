package config

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestPresetsValidate(t *testing.T) {
	presets := []Config{
		PEARLDyn(), PEARLFCFS(),
		DynRW(500), DynRW(2000),
		MLRW(500, true), MLRW(500, false), MLRW(1000, true), MLRW(2000, true),
		StaticWL(64), StaticWL(48), StaticWL(32), StaticWL(16), StaticWL(8),
	}
	for _, c := range presets {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name(), err)
		}
	}
}

func TestArchitectureConstants(t *testing.T) {
	if TotalCPUCores != 32 {
		t.Errorf("CPU cores = %d, want 32 (Table I)", TotalCPUCores)
	}
	if TotalGPUCUs != 64 {
		t.Errorf("GPU CUs = %d, want 64 (Table I)", TotalGPUCUs)
	}
	if NumRouters != 17 {
		t.Errorf("routers = %d, want 17 (16 clusters + L3)", NumRouters)
	}
	if L3RouterID != 16 {
		t.Errorf("L3 router id = %d, want 16", L3RouterID)
	}
	if GridWidth*GridWidth != NumClusterRouters {
		t.Error("grid does not cover cluster routers")
	}
}

func TestTableIIAreas(t *testing.T) {
	a := TableII()
	if a.ClusterCoresL1 != 25.0 || a.L2PerCluster != 2.1 || a.OpticalComponents != 24.4 {
		t.Errorf("Table II values drifted: %+v", a)
	}
	if a.MachineLearning != 0.018 {
		t.Errorf("ML area = %v, want 0.018 mm^2", a.MachineLearning)
	}
	total := a.Total()
	// 25*16 + 2.1*16 + 24.4 + 8.5 + 0.342*17 + 0.312*17 + 0.576 + 0.018
	want := 25.0*16 + 2.1*16 + 24.4 + 8.5 + 0.342*17 + 0.312*17 + 0.576 + 0.018
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("total area = %v, want %v", total, want)
	}
	if total < 400 || total > 550 {
		t.Errorf("total area %v mm^2 implausible for the 96-core chip", total)
	}
}

func TestValidateRejectsBadWavelengths(t *testing.T) {
	c := Default()
	c.StaticWavelengths = 40
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for 40 wavelengths")
	}
}

func TestValidateRejectsBadWindow(t *testing.T) {
	c := Default()
	c.ReservationWindow = 0
	if c.Validate() == nil {
		t.Fatal("expected error for zero window")
	}
}

func TestValidateRejectsBadThresholds(t *testing.T) {
	c := Default()
	c.Thresholds = PowerThresholds{Lower: 0.5, MidLower: 0.4, MidUpper: 0.6, Upper: 0.7}
	if c.Validate() == nil {
		t.Fatal("expected error for non-monotone thresholds")
	}
	c.Thresholds = PowerThresholds{Lower: 0.1, MidLower: 0.2, MidUpper: 0.3, Upper: 1.5}
	if c.Validate() == nil {
		t.Fatal("expected error for threshold > 1")
	}
}

func TestValidateRejectsBadBounds(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.CPUUpperBound = 0 },
		func(c *Config) { c.GPUUpperBound = 1.5 },
		func(c *Config) { c.BandwidthStep = 0 },
		func(c *Config) { c.BandwidthStep = 0.6 },
		func(c *Config) { c.CPUBufferSlots = 0 },
		func(c *Config) { c.GPUBufferSlots = -1 },
		func(c *Config) { c.LaserTurnOnNs = -2 },
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.WarmupCycles = -1 },
		func(c *Config) { c.FeatureOffsetCycles = -1 },
	} {
		c := Default()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %+v should fail validation", c)
		}
	}
}

// TestValidateCeilings pins the declared ceilings of the open-ended
// numeric fields: the ceiling itself validates, one step past it (and
// the values that used to wrap or hang a run) does not.
func TestValidateCeilings(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"turn-on at ceiling", func(c *Config) { c.LaserTurnOnNs = MaxLaserTurnOnNs }, true},
		{"turn-on above ceiling", func(c *Config) { c.LaserTurnOnNs = MaxLaserTurnOnNs + 0.5 }, false},
		{"turn-on 1e300", func(c *Config) { c.LaserTurnOnNs = 1e300 }, false},
		{"turn-on NaN", func(c *Config) { c.LaserTurnOnNs = math.NaN() }, false},
		{"turn-on +Inf", func(c *Config) { c.LaserTurnOnNs = math.Inf(1) }, false},
		{"feature offset at ceiling", func(c *Config) { c.FeatureOffsetCycles = MaxFeatureOffsetCycles }, true},
		{"feature offset above ceiling", func(c *Config) { c.FeatureOffsetCycles = MaxFeatureOffsetCycles + 1 }, false},
		{"feature offset 4e12", func(c *Config) { c.FeatureOffsetCycles = 4e12 }, false},
		{"CPU slots at ceiling", func(c *Config) { c.CPUBufferSlots = MaxBufferSlots }, true},
		{"CPU slots above ceiling", func(c *Config) { c.CPUBufferSlots = MaxBufferSlots + 1 }, false},
		{"CPU slots 1e8", func(c *Config) { c.CPUBufferSlots = 100000000 }, false},
		{"GPU slots at ceiling", func(c *Config) { c.GPUBufferSlots = MaxBufferSlots }, true},
		{"GPU slots above ceiling", func(c *Config) { c.GPUBufferSlots = MaxBufferSlots + 1 }, false},
		{"reservation window at ceiling", func(c *Config) { c.ReservationWindow = MaxReservationWindow }, true},
		{"reservation window above ceiling", func(c *Config) { c.ReservationWindow = MaxReservationWindow + 1 }, false},
		{"reservation window 1e9", func(c *Config) { c.ReservationWindow = 1000000000 }, false},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// Every preset stays valid, and so does the ceiling's cycle count.
	for _, name := range PresetNames() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c.LaserTurnOnNs = MaxLaserTurnOnNs
		if err := c.Validate(); err != nil {
			t.Errorf("preset %s at the turn-on ceiling: %v", name, err)
		}
		if got := c.TurnOnCycles(); got <= 0 {
			t.Errorf("preset %s: TurnOnCycles at the ceiling = %d", name, got)
		}
	}
}

// TestValidateEnumRanges pins the closed lists: every declared bandwidth
// and power policy validates, and any other value is rejected rather than
// silently run as some declared one.
func TestValidateEnumRanges(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"bandwidth FCFS", func(c *Config) { c.Bandwidth = PolicyFCFS }, true},
		{"bandwidth Dynamic", func(c *Config) { c.Bandwidth = PolicyDynamic }, true},
		{"bandwidth 2", func(c *Config) { c.Bandwidth = 2 }, false},
		{"bandwidth 99", func(c *Config) { c.Bandwidth = 99 }, false},
		{"bandwidth -5", func(c *Config) { c.Bandwidth = -5 }, false},
		{"power Static", func(c *Config) { c.Power = PowerStatic }, true},
		{"power Reactive", func(c *Config) { c.Power = PowerReactive }, true},
		{"power ML", func(c *Config) { c.Power = PowerML }, true},
		{"power Proteus", func(c *Config) { c.Power = PowerProteus }, true},
		{"power D3NOC", func(c *Config) { c.Power = PowerD3NOC }, true},
		{"power Online", func(c *Config) { c.Power = PowerOnline }, true},
		{"power RL", func(c *Config) { c.Power = PowerRL }, true},
		{"power one past RL", func(c *Config) { c.Power = PowerRL + 1 }, false},
		{"power 99", func(c *Config) { c.Power = 99 }, false},
		{"power -1", func(c *Config) { c.Power = -1 }, false},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestTurnOnCycles(t *testing.T) {
	cases := []struct {
		ns   float64
		want int
	}{
		{2, 4}, // 2 ns at 0.5 ns/cycle
		{4, 8}, // sensitivity study points
		{16, 32},
		{32, 64},
		{0, 0},
		{0.4, 1}, // sub-cycle rounds up
	}
	for _, tc := range cases {
		c := Default()
		c.LaserTurnOnNs = tc.ns
		if got := c.TurnOnCycles(); got != tc.want {
			t.Errorf("TurnOnCycles(%vns) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

func TestPaperThresholdValues(t *testing.T) {
	c := Default()
	if c.CPUUpperBound != 0.16 {
		t.Errorf("CPU upper bound = %v, want 0.16 (paper §III.B)", c.CPUUpperBound)
	}
	if c.GPUUpperBound != 0.06 {
		t.Errorf("GPU upper bound = %v, want 0.06 (paper §III.B)", c.GPUUpperBound)
	}
	if c.BandwidthStep != 0.25 {
		t.Errorf("bandwidth step = %v, want 0.25 (paper §III.B)", c.BandwidthStep)
	}
}

func TestConfigNames(t *testing.T) {
	cases := []struct {
		c    Config
		want string
	}{
		{PEARLDyn(), "PEARL-Dyn(64WL)"},
		{PEARLFCFS(), "PEARL-FCFS(64WL)"},
		{DynRW(500), "Dyn RW500"},
		{DynRW(2000), "Dyn RW2000"},
		{MLRW(500, true), "ML RW500"},
		{MLRW(500, false), "ML RW500 no8WL"},
		{MLRW(2000, true), "ML RW2000"},
		{StaticWL(32), "PEARL-Dyn(32WL)"},
	}
	for _, tc := range cases {
		if got := tc.c.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyFCFS.String() != "FCFS" || PolicyDynamic.String() != "Dynamic" {
		t.Error("bandwidth policy strings wrong")
	}
	if PowerStatic.String() != "Static" || PowerReactive.String() != "Reactive" || PowerML.String() != "ML" {
		t.Error("power policy strings wrong")
	}
	if !strings.Contains(BandwidthPolicy(9).String(), "9") {
		t.Error("unknown bandwidth policy should include code")
	}
	if !strings.Contains(PowerPolicy(9).String(), "9") {
		t.Error("unknown power policy should include code")
	}
}

func TestTurnOnCyclesNeverTruncates(t *testing.T) {
	f := func(raw uint16) bool {
		ns := float64(raw) / 100 // 0 .. 655.35 ns
		c := Default()
		c.LaserTurnOnNs = ns
		cycles := c.TurnOnCycles()
		periodNs := 1e9 / NetworkFrequencyHz
		return float64(cycles)*periodNs >= ns && float64(cycles)*periodNs < ns+2*periodNs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultIsPaperBaseline(t *testing.T) {
	c := Default()
	if c.Bandwidth != PolicyDynamic || c.Power != PowerStatic || c.StaticWavelengths != 64 {
		t.Errorf("default should be PEARL-Dyn at 64 WL, got %s", c.Name())
	}
}
