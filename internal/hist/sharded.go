package hist

// MergeShards joins the histograms a sharded build solved over the
// contiguous shards [bounds[s], bounds[s+1]) into one histogram over the
// whole domain: each shard's buckets re-anchored to global item
// coordinates, with cost the combined cost the build's budget allocation
// priced them at.
func MergeShards(pieces []*Histogram, bounds []int, cost float64) (*Histogram, error) {
	merged := &Histogram{N: bounds[len(pieces)], Cost: cost}
	for s, h := range pieces {
		for _, b := range h.Buckets {
			b.Start += bounds[s]
			b.End += bounds[s]
			merged.Buckets = append(merged.Buckets, b)
		}
	}
	if err := merged.Validate(); err != nil {
		return nil, err
	}
	return merged, nil
}
