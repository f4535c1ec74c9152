module actdsm/benchmark

go 1.23

require actdsm v0.0.0

replace actdsm => ../
