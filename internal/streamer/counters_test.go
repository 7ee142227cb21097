package streamer_test

import (
	"reflect"
	"testing"

	"snacc/internal/streamer"
)

// TestCountersAddCoversEveryField sets every counter to a distinct value
// and checks Add sums each one, so a field added to Counters but left out
// of Add fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	var a, b streamer.Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}
