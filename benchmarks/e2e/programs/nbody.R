nbody_energy <- function(px, py, pz, vx, vy, vz, mass, nb) {
  e <- 0.0
  for (i in 1:nb) {
    e <- e + 0.5 * mass[[i]] * (vx[[i]]*vx[[i]] + vy[[i]]*vy[[i]] + vz[[i]]*vz[[i]])
    j <- i + 1L
    while (j <= nb) {
      dx <- px[[i]] - px[[j]]
      dy <- py[[i]] - py[[j]]
      dz <- pz[[i]] - pz[[j]]
      e <- e - mass[[i]] * mass[[j]] / sqrt(dx*dx + dy*dy + dz*dz)
      j <- j + 1L
    }
  }
  e
}

nbody_step <- function(px, py, pz, vx, vy, vz, mass, nb, steps) {
  dt <- 0.01
  for (s in 1:steps) {
    for (i in 1:nb) {
      j <- i + 1L
      while (j <= nb) {
        dx <- px[[i]] - px[[j]]
        dy <- py[[i]] - py[[j]]
        dz <- pz[[i]] - pz[[j]]
        d2 <- dx*dx + dy*dy + dz*dz
        mag <- dt / (d2 * sqrt(d2))
        vx[[i]] <- vx[[i]] - dx * mass[[j]] * mag
        vy[[i]] <- vy[[i]] - dy * mass[[j]] * mag
        vz[[i]] <- vz[[i]] - dz * mass[[j]] * mag
        vx[[j]] <- vx[[j]] + dx * mass[[i]] * mag
        vy[[j]] <- vy[[j]] + dy * mass[[i]] * mag
        vz[[j]] <- vz[[j]] + dz * mass[[i]] * mag
        j <- j + 1L
      }
      px[[i]] <- px[[i]] + dt * vx[[i]]
      py[[i]] <- py[[i]] + dt * vy[[i]]
      pz[[i]] <- pz[[i]] + dt * vz[[i]]
    }
  }
  nbody_energy(px, py, pz, vx, vy, vz, mass, nb)
}

nbody_run <- function(steps) {
  nb <- 5L
  pi2 <- 3.141592653589793
  solar <- 4.0 * pi2 * pi2
  days <- 365.24
  px <- c(0, 4.84143144246472090, 8.34336671824457987, 12.894369562139131, 15.379697114850917)
  py <- c(0, -1.16032004402742839, 4.12479856412430479, -15.111151401698631, -25.919314609987964)
  pz <- c(0, -0.103622044471123109, -0.403523417114321381, -0.223307578892655734, 0.179258772950371181)
  vx <- c(0, 0.00166007664274403694*days, -0.00276742510726862411*days, 0.00296460137564761618*days, 0.00288930532631982525*days)
  vy <- c(0, 0.00769901118419740425*days, 0.00499852801234917238*days, 0.00237847173959480950*days, 0.00114718438148081685*days)
  vz <- c(0, -0.0000690460016972063023*days, 0.0000230417297573763929*days, -0.0000296589568540237556*days, -0.000039021756012170231*days)
  mass <- c(1.0*solar, 0.000954791938424326609*solar, 0.000285885980666130812*solar,
            0.0000436624404335156298*solar, 0.0000515138902046611451*solar)
  momx <- 0.0; momy <- 0.0; momz <- 0.0
  for (i in 1:nb) {
    momx <- momx + vx[[i]] * mass[[i]]
    momy <- momy + vy[[i]] * mass[[i]]
    momz <- momz + vz[[i]] * mass[[i]]
  }
  vx[[1]] <- 0.0 - momx / mass[[1]]
  vy[[1]] <- 0.0 - momy / mass[[1]]
  vz[[1]] <- 0.0 - momz / mass[[1]]
  nbody_step(px, py, pz, vx, vy, vz, mass, nb, steps)
}
