package lowlat

import (
	"math"
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/media"
)

// LoL+ trusts the 25th throughput percentile, not the median: eight equal
// chunks at 80/k Mbps (k = 8…1, the fastest last so the cap by the most
// recent sample does not bind) must estimate the second-slowest rate.
func TestLoLPHistoryUsesLoLPPercentile(t *testing.T) {
	p := NewLoLP(media.HSub(media.DramaShow()))
	if _, ok := p.BandwidthEstimate(); ok {
		t.Fatal("estimate before any sample should not be ok")
	}
	for k := 8; k >= 1; k-- {
		p.OnComplete(abr.TransferInfo{Bytes: 10000, Duration: time.Duration(k) * time.Millisecond})
	}
	got, ok := p.BandwidthEstimate()
	if !ok {
		t.Fatal("no estimate after eight samples")
	}
	want, median := 80e6/7, 80e6/5
	if math.Abs(float64(got)-want) > 1 {
		t.Errorf("estimate = %d bps, want the 25th percentile %.0f (the median would be %.0f)", got, want, median)
	}
}
