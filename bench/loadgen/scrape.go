package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
)

// Scrape is one parse of a server's Prometheus text exposition: series
// name with its label set, exactly as printed, to value.
type Scrape map[string]float64

// ParseScrape reads the text format the servers emit at /v1/metrics:
// comment lines start with '#', every other line is
// `name{labels} value` or `name value`.
func ParseScrape(text []byte) (Scrape, error) {
	out := Scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may themselves
		// contain spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// Sum adds every series of family name whose label set contains all of
// the given `key="value"` fragments.
func (s Scrape) Sum(name string, labels ...string) float64 {
	total := 0.0
series:
	for k, v := range s {
		family, set, _ := strings.Cut(k, "{")
		if family != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(set, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// Sub returns the per-series difference s − before (series missing from
// before count from zero).
func (s Scrape) Sub(before Scrape) Scrape {
	out := make(Scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// Add merges other into s series by series (several processes' scrapes
// summed into one).
func (s Scrape) Add(other Scrape) {
	for k, v := range other {
		s[k] += v
	}
}

// scrapeProc fetches and parses /v1/metrics of one process.
func scrapeProc(ctx context.Context, addr string) (Scrape, error) {
	c := NewConn(addr)
	defer c.Close()
	body, err := c.Get(ctx, "/v1/metrics")
	if err != nil {
		return nil, err
	}
	return ParseScrape(body)
}
