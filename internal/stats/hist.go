package stats

// HourHistogram counts events by hour of day (0–23). The paper's Fig. 9
// reports revocations against the revoked server's local hour.
type HourHistogram struct {
	Counts [24]int
}

// Add records an event at the given hour of day; hours are normalized
// modulo 24 so callers can pass raw cumulative hours.
func (h *HourHistogram) Add(hour int) {
	hour %= 24
	if hour < 0 {
		hour += 24
	}
	h.Counts[hour]++
}

// Total returns the number of recorded events.
func (h *HourHistogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Peak returns the hour with the most events and its count. Ties go to
// the earliest hour.
func (h *HourHistogram) Peak() (hour, count int) {
	for i, c := range h.Counts {
		if c > count {
			hour, count = i, c
		}
	}
	return hour, count
}
