module greennfv/bench

go 1.24

require greennfv v0.0.0

replace greennfv => ../
