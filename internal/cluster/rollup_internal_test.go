package cluster

import (
	"reflect"
	"testing"

	"repro/internal/serve"
)

// rollupExempt lists the serve.Stats fields a fleet rollup drops on
// purpose: per-process and per-model identity labels, meaningless once
// several shards are merged.
var rollupExempt = map[string]bool{
	"Model":       true,
	"ShardID":     true,
	"Addr":        true,
	"Generation":  true,
	"MaxAltitude": true,
}

// fillNumeric sets every numeric field of s to a distinct non-zero value.
func fillNumeric(s *serve.Stats, base int) {
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		n := base + i + 1
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Float32, reflect.Float64:
			f.SetFloat(float64(n))
		}
	}
}

// TestRollupMergesEveryStatsField pins that rollup has a merge rule for
// every numeric serve.Stats field: with every field non-zero on both
// shards, a field left zero in the rollup was silently dropped. A field
// added to serve.Stats without a rule here fails this test.
func TestRollupMergesEveryStatsField(t *testing.T) {
	var a, b serve.Stats
	fillNumeric(&a, 0)
	fillNumeric(&b, 100)
	out := reflect.ValueOf(rollup([]serve.Stats{a, b}))
	typ := out.Type()
	checked := 0
	for i := 0; i < out.NumField(); i++ {
		f := out.Field(i)
		name := typ.Field(i).Name
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			continue
		}
		if rollupExempt[name] {
			continue
		}
		checked++
		if f.IsZero() {
			t.Errorf("rollup drops serve.Stats.%s (zero in the fleet rollup, non-zero on every shard)", name)
		}
	}
	if checked == 0 {
		t.Fatal("no numeric serve.Stats fields found")
	}
}
